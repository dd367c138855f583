package bouquet

import (
	"context"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/ess"
	"repro/internal/plan"
	"repro/internal/workload"
)

// referenceReduce is the oracle for Reduce: the straightforward anorexic
// reduction loop that re-costs every surviving plan from scratch with
// Model.Eval at every cell. It swallows victims in the same order and
// applies the same rule: the cheapest survivor within (1+lambda) of
// optimal wins, the lowest POSP index among equal costs. It returns the
// per-cell assignment and the ascending survivor list.
func referenceReduce(s *ess.Space, lambda float64) ([]int32, []int) {
	g := s.Grid
	n := g.Size()
	planIdx := make([]int32, n)
	cellsOf := map[int][]int{}
	for ci := 0; ci < n; ci++ {
		id := s.PlanIDAt(ci)
		planIdx[ci] = int32(id)
		cellsOf[id] = append(cellsOf[id], ci)
	}
	kept := map[int]bool{}
	order := make([]int, 0, len(cellsOf))
	for id := range cellsOf {
		kept[id] = true
		order = append(order, id)
	}
	survivors := func() []int {
		ids := make([]int, 0, len(kept))
		for id := range kept {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		return ids
	}
	if lambda <= 0 {
		return planIdx, survivors()
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if len(cellsOf[a]) != len(cellsOf[b]) {
			return len(cellsOf[a]) < len(cellsOf[b])
		}
		return a < b
	})
	plans := s.Plans()
	for _, victim := range order {
		if len(kept) == 1 {
			break
		}
		type move struct {
			ci int
			to int32
		}
		var moves []move
		ok := true
		ids := survivors()
		for _, ci := range cellsOf[victim] {
			if int(planIdx[ci]) != victim {
				continue
			}
			loc := g.Location(ci)
			limit := s.CostAt(ci) * (1 + lambda)
			bestID, bestCost := -1, limit
			for _, id := range ids {
				if id == victim {
					continue
				}
				if c := s.Model.Eval(plans[id], loc); c <= limit && (bestID < 0 || c < bestCost) {
					bestID, bestCost = id, c
				}
			}
			if bestID < 0 {
				ok = false
				break
			}
			moves = append(moves, move{ci, int32(bestID)})
		}
		if !ok {
			continue
		}
		for _, mv := range moves {
			planIdx[mv.ci] = mv.to
			cellsOf[int(mv.to)] = append(cellsOf[int(mv.to)], mv.ci)
		}
		delete(kept, victim)
	}
	return planIdx, survivors()
}

// requireMatchesReference fails unless Reduce agrees with referenceReduce
// cell for cell and on the surviving plan set.
func requireMatchesReference(t *testing.T, name string, s *ess.Space, lambda float64) *Diagram {
	t.Helper()
	d := Reduce(s, lambda)
	wantIdx, wantKept := referenceReduce(s, lambda)
	if !slices.Equal(d.kept, wantKept) {
		t.Fatalf("%s: Reduce kept %d plans %v, reference kept %d %v",
			name, len(d.kept), d.kept, len(wantKept), wantKept)
	}
	for ci := range wantIdx {
		if d.planIdx[ci] != wantIdx[ci] {
			t.Fatalf("%s: cell %d assigned P%d, reference P%d", name, ci, d.planIdx[ci], wantIdx[ci])
		}
	}
	return d
}

// benchmarkSpace builds a benchmark query's ESS at its recommended grid,
// the space a benchmark session reduces.
func benchmarkSpace(t testing.TB, name string) *ess.Space {
	t.Helper()
	sp, ok := workload.ByName(name)
	if !ok || sp.Catalog != "tpcds" {
		t.Fatalf("%s: not a TPC-DS benchmark query", name)
	}
	q, err := sp.Build(catalog.TPCDS(100))
	if err != nil {
		t.Fatal(err)
	}
	m := cost.MustNewModel(q, cost.PostgresLike())
	s, err := ess.BuildParallelContext(context.Background(), m, ess.NewGrid(q.D(), sp.GridRes, sp.GridLo), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestReduceMatchesReferenceOnBenchmarkSpaces(t *testing.T) {
	for _, name := range []string{"2D_Q91", "3D_Q91", "4D_Q91", "5D_Q91", "5D_Q84"} {
		requireMatchesReference(t, name, benchmarkSpace(t, name), 0.2)
	}
}

// TestReduceMatchesReferenceOn6DQ18 covers the benchmark space whose POSP
// holds equal-cost plans, where the tie rule decides cells; it also
// requires a second reduction to reproduce the first.
func TestReduceMatchesReferenceOn6DQ18(t *testing.T) {
	if testing.Short() {
		t.Skip("6D_Q18 reference reduction takes seconds")
	}
	s := benchmarkSpace(t, "6D_Q18")
	d := requireMatchesReference(t, "6D_Q18", s, 0.2)
	again := Reduce(s, 0.2)
	if !slices.Equal(again.planIdx, d.planIdx) || !slices.Equal(again.kept, d.kept) {
		t.Fatal("6D_Q18: two reductions of one space disagree")
	}
}

func TestReduceMatchesReferenceOnRandomQueries(t *testing.T) {
	cat := catalog.TPCDS(1)
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 24; trial++ {
		q, err := workload.Random(cat, rng, workload.GenOptions{
			Relations:  2 + rng.Intn(5),
			EPPs:       1 + rng.Intn(4),
			MaxFilters: 2,
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		m := cost.MustNewModel(q, cost.PostgresLike())
		res := []int{0, 16, 10, 6, 4}[q.D()]
		s, err := ess.BuildParallelContext(context.Background(), m, ess.NewGrid(q.D(), res, 1e-6), 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, lambda := range []float64{0.2, 1} {
			requireMatchesReference(t, workload.Describe(q), s, lambda)
		}
	}
}

// TestReduceBreaksTiesByLowestIndex builds a diagram whose victim can be
// re-homed to either of two identical plans at exactly its optimal cost:
// the lower POSP index must win, on every reduction.
func TestReduceBreaksTiesByLowestIndex(t *testing.T) {
	base := buildSpace(t, 4)
	root := base.PlanAt(0).Root
	twinA, twinB := plan.New(root), plan.New(root)
	victim := base.PlanAt(base.Grid.Size() - 1)
	plans := []*plan.Plan{twinA, twinB, victim}
	g := ess.NewGrid(2, 3, 1e-6)
	m := base.Model
	// Cell 0 belongs to the victim; cells 1-4 and 5-8 to the twins, whose
	// recorded optimum is set too low for either twin to swallow the other.
	planAt := func(ci int) int {
		switch {
		case ci == 0:
			return 2
		case ci <= 4:
			return 0
		}
		return 1
	}
	costAt := func(ci int) float64 {
		c := m.Eval(twinA, g.Location(ci))
		if ci == 0 {
			return c
		}
		return c / 2
	}
	s := ess.FromSurface(m, g, plans, costAt, planAt)
	for i := 0; i < 20; i++ {
		d := requireMatchesReference(t, "tie", s, 0.2)
		if d.PlanIDAt(0) != 0 || !slices.Equal(d.kept, []int{0, 1}) {
			t.Fatalf("reduction %d: cell 0 -> P%d, kept %v; want P0, [0 1]", i, d.PlanIDAt(0), d.kept)
		}
	}
}
