package optimizer

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/sqlmini"
	"repro/internal/workload"
)

// specModel builds the cost model of a listed benchmark query.
func specModel(t *testing.T, sp workload.Spec) *cost.Model {
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
	return cost.MustNewModel(q, cost.PostgresLike())
}

// probes returns n seeded locations of the query's ESS, alternating between
// points of its recommended grid (log-spaced from GridLo to 1, as
// ess.NewGrid places them) and log-uniform points off the grid.
func probes(sp workload.Spec, rng *rand.Rand, n int) []cost.Location {
	pts := make([]float64, sp.GridRes)
	for i := range pts {
		pts[i] = math.Pow(sp.GridLo, 1-float64(i)/float64(sp.GridRes-1))
	}
	pts[len(pts)-1] = 1
	out := make([]cost.Location, n)
	for i := range out {
		at := make(cost.Location, sp.D)
		for d := range at {
			if i%2 == 0 {
				at[d] = pts[rng.Intn(len(pts))]
			} else {
				at[d] = math.Pow(sp.GridLo, rng.Float64())
			}
		}
		out[i] = at
	}
	return out
}

// requireFresh fails unless o's plan and cost at the location equal those
// of a new optimizer, one that has never interned a plan.
func requireFresh(t *testing.T, name string, o *Optimizer, at cost.Location) {
	t.Helper()
	p, c := o.Optimize(at)
	fp, fc := MustNew(o.Model()).Optimize(at)
	if p.Fingerprint() != fp.Fingerprint() || math.Float64bits(c) != math.Float64bits(fc) {
		t.Fatalf("%s at %v: interning optimizer gave %s cost %v, fresh optimizer %s cost %v",
			name, at, p.Fingerprint(), c, fp.Fingerprint(), fc)
	}
}

// requireBounded fails if o's intern table is past its cap or out of step.
func requireBounded(t *testing.T, name string, o *Optimizer) {
	t.Helper()
	if len(o.internPlans) > o.internCap || len(o.internIDs) != len(o.internPlans) {
		t.Fatalf("%s: intern table holds %d ids and %d plan slots, cap %d",
			name, len(o.internIDs), len(o.internPlans), o.internCap)
	}
}

func TestInterningMatchesFreshOptimizer(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, sp := range workload.All() {
		o := MustNew(specModel(t, sp))
		locs := probes(sp, rng, 40)
		for _, at := range locs {
			requireFresh(t, sp.Name, o, at)
			requireBounded(t, sp.Name, o)
		}
		// Equal plans come back as one plan.
		p, _ := o.Optimize(locs[0])
		if again, _ := o.Optimize(locs[0]); again != p {
			t.Errorf("%s: two optimizations at one location returned distinct plans", sp.Name)
		}
	}
}

func TestInterningAcrossResets(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, sp := range workload.All() {
		o := MustNew(specModel(t, sp))
		// Room for about two plans' subtrees, so the probes reset the table
		// many times.
		o.internCap = 4 * o.n
		resets, last := 0, 0
		for _, at := range probes(sp, rng, 40) {
			requireFresh(t, sp.Name, o, at)
			requireBounded(t, sp.Name, o)
			if len(o.internPlans) < last {
				resets++
			}
			last = len(o.internPlans)
		}
		if resets == 0 {
			t.Errorf("%s: 40 optimizations never reset a %d-id table", sp.Name, o.internCap)
		}
	}
}

// cliqueQuery joins k aliases of one table on every pair but the first
// drop pairs, in a connected order.
func cliqueQuery(t *testing.T, k, drop int) *cost.Model {
	t.Helper()
	var from, where []string
	for i := 0; i < k; i++ {
		from = append(from, fmt.Sprintf("part a%d", i))
	}
	for gap := 1; gap < k; gap++ { // chain first, so any prefix is connected
		for i := 0; i+gap < k; i++ {
			where = append(where, fmt.Sprintf("a%d.p_partkey = a%d.p_partkey", i, i+gap))
		}
	}
	where = where[:len(where)-drop]
	q := sqlmini.MustParse(testCatalog(), "SELECT * FROM "+strings.Join(from, ", ")+" WHERE "+strings.Join(where, " AND "))
	return cost.MustNewModel(q, cost.PostgresLike())
}

func TestNewRejectsMoreThan64Joins(t *testing.T) {
	if _, err := New(cliqueQuery(t, 12, 1)); err == nil || !strings.Contains(err.Error(), "65 joins") {
		t.Fatalf("New on a 65-join query: err = %v, want the 64-join limit", err)
	}
	// 64 joins fit: the last join's mask bit is bit 63.
	m := cliqueQuery(t, 12, 2)
	o, err := New(m)
	if err != nil {
		t.Fatalf("New on a 64-join query: %v", err)
	}
	p, c := o.Optimize(cost.Location{})
	if ev := m.Eval(p, cost.Location{}); ev != c {
		t.Errorf("64-join plan costs %v, Optimize reported %v", ev, c)
	}
}
