package plan_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/ess"
	"repro/internal/plan"
	"repro/internal/workload"
)

// suitePOSP builds a suite query's ESS at its recommended grid and returns
// its model and POSP plans.
func suitePOSP(t *testing.T, sp workload.Spec) (*cost.Model, []*plan.Plan) {
	t.Helper()
	cat := catalog.TPCDS(100)
	switch sp.Catalog {
	case "imdb":
		cat = catalog.IMDB()
	case "tpch":
		cat = catalog.TPCH(1)
	}
	q, err := sp.Build(cat)
	if err != nil {
		t.Fatal(err)
	}
	m := cost.MustNewModel(q, cost.PostgresLike())
	s, err := ess.BuildParallelContext(context.Background(), m, ess.NewGrid(q.D(), sp.GridRes, sp.GridLo), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m, s.Plans()
}

// fmtFingerprint is the fmt-built fingerprint formula plan.New used to
// compute; the append-based one must reproduce it byte for byte.
func fmtFingerprint(n *plan.Node) string {
	if n == nil {
		return ""
	}
	switch n.Kind {
	case plan.SeqScan:
		return fmt.Sprintf("S%d", n.Rel)
	case plan.Sort:
		return "σ(" + fmtFingerprint(n.Left) + ")"
	case plan.Aggregate:
		return "γ(" + fmtFingerprint(n.Left) + ")"
	default:
		ids := make([]string, len(n.JoinIDs))
		for i, id := range n.JoinIDs {
			ids[i] = fmt.Sprint(id)
		}
		return fmt.Sprintf("%s%s(%s,%s)", n.Kind, strings.Join(ids, "+"),
			fmtFingerprint(n.Left), fmtFingerprint(n.Right))
	}
}

// TestFingerprintMatchesFmtFormula compares every POSP plan's fingerprint,
// and every one of its join subtrees', with the fmt formula, on every
// query of the suite.
func TestFingerprintMatchesFmtFormula(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every suite ESS; skipped in -short")
	}
	plans := 0
	for _, sp := range workload.All() {
		_, posp := suitePOSP(t, sp)
		for _, p := range posp {
			p.Walk(func(n *plan.Node) {
				if n.Kind == plan.SeqScan || n.Kind == plan.Sort || n.Kind == plan.Aggregate {
					return
				}
				if got, want := plan.New(n).Fingerprint(), fmtFingerprint(n); got != want {
					t.Fatalf("%s: subtree fingerprint %q, fmt formula %q", sp.Name, got, want)
				}
			})
			if got, want := p.Fingerprint(), fmtFingerprint(p.Root); got != want {
				t.Fatalf("%s: fingerprint %q, fmt formula %q", sp.Name, got, want)
			}
			plans++
		}
	}
	t.Logf("%d POSP plans", plans)
}

// TestSubtreeMemoConcurrent has many goroutines ask one shared POSP plan
// for its subtrees: each join ID yields one pointer, structurally the
// plan New(FindJoinNode(j)) would build, and a join the plan lacks yields
// nil.
func TestSubtreeMemoConcurrent(t *testing.T) {
	sp, ok := workload.ByName("6D_Q18")
	if !ok {
		t.Fatal("6D_Q18 missing from the suite")
	}
	m, posp := suitePOSP(t, sp)
	// The plan with the most join nodes.
	p, most := posp[0], 0
	for _, c := range posp {
		joins := 0
		c.Walk(func(n *plan.Node) {
			if len(n.JoinIDs) > 0 {
				joins++
			}
		})
		if joins > most {
			p, most = c, joins
		}
	}
	ids := make([]int, 0, len(m.Query.Joins)+2)
	for j := range m.Query.Joins {
		ids = append(ids, j)
	}
	ids = append(ids, len(m.Query.Joins), -1) // joins no plan applies

	const workers = 16
	got := make([][]*plan.Plan, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := make([]*plan.Plan, len(ids))
			for k := range ids {
				// Each worker walks the IDs from its own offset, so first
				// asks for one ID race from several goroutines.
				i := (k + w) % len(ids)
				out[i] = p.Subtree(ids[i])
			}
			got[w] = out
		}(w)
	}
	wg.Wait()
	for i, j := range ids {
		want := p.FindJoinNode(j)
		sub := got[0][i]
		for w := 1; w < workers; w++ {
			if got[w][i] != sub {
				t.Fatalf("join %d: worker %d got %p, worker 0 got %p", j, w, got[w][i], sub)
			}
		}
		if want == nil {
			if sub != nil {
				t.Fatalf("join %d: plan lacks it, Subtree = %s", j, sub.Fingerprint())
			}
			continue
		}
		if sub == nil || sub.Root != want {
			t.Fatalf("join %d: Subtree root is not FindJoinNode's node", j)
		}
		if fresh := plan.New(want).Fingerprint(); sub.Fingerprint() != fresh {
			t.Fatalf("join %d: memoized fingerprint %q, fresh %q", j, sub.Fingerprint(), fresh)
		}
		if again := p.Subtree(j); again != sub {
			t.Fatalf("join %d: a later call returned another pointer", j)
		}
	}
}

// TestSpillTargetMatchesEPPOrder checks SpillTarget against the first entry
// of EPPOrder, ok included, on every POSP plan of three suite queries under
// every subset of their epps as the learned set, and that it allocates
// nothing.
func TestSpillTargetMatchesEPPOrder(t *testing.T) {
	for _, name := range []string{"4D_Q91", "5D_Q84", "6D_Q18"} {
		sp, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("%s missing from the suite", name)
		}
		m, posp := suitePOSP(t, sp)
		epps := m.Query.EPPs
		for mask := 0; mask < 1<<len(epps); mask++ {
			learned := map[int]bool{}
			for d, id := range epps {
				if mask&(1<<d) != 0 {
					learned[id] = true
				}
			}
			for i, p := range posp {
				got, gotOK := p.SpillTarget(epps, learned)
				var want plan.EPPNode
				order := p.EPPOrder(epps, learned)
				if len(order) > 0 {
					want = order[0]
				}
				if got != want || gotOK != (len(order) > 0) {
					t.Fatalf("%s plan %d learned %v: SpillTarget %+v, %v; EPPOrder %+v", name, i, learned, got, gotOK, order)
				}
			}
			p := posp[mask%len(posp)]
			if allocs := testing.AllocsPerRun(100, func() { p.SpillTarget(epps, learned) }); allocs != 0 {
				t.Fatalf("%s learned %v: SpillTarget allocates %v times per call", name, learned, allocs)
			}
		}
	}
}
