package aligned

import (
	"context"
	"flag"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/ess"
	"repro/internal/metrics"
	"repro/internal/workgolden"
	"repro/internal/workload"
)

var updateWork = flag.Bool("update", false, "rewrite this package's counters in testdata/work_golden.json at the module root from the current code")

// TestPoolCostsGolden pins aligned.pool_costs, the (cell, plan) pairs the
// induced replacements cost in a cold 400-location AlignedBound sweep (the
// benchmark sessions' seed) of a fresh space. The sweep runs on four
// workers: each contour and each learnt set's pools are planned once, so
// the count does not depend on how many runs reach them at once.
func TestPoolCostsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps two benchmark spaces cold; skipped in -short")
	}
	got := map[string]int{}
	for _, name := range []string{"4D_Q91", "5D_Q84"} {
		sp, _ := workload.ByName(name)
		q, err := sp.Build(catalog.TPCDS(100))
		if err != nil {
			t.Fatal(err)
		}
		m := cost.MustNewModel(q, cost.PostgresLike())
		s, err := ess.BuildParallelContext(context.Background(), m, ess.NewGrid(q.D(), sp.GridRes, sp.GridLo), 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		r := NewRunner(s)
		if _, err := metrics.SweepContext(context.Background(), s, func(truth cost.Location) float64 {
			return r.Run(engine.New(m, truth)).TotalCost
		}, metrics.SweepOptions{MaxLocations: 400, Seed: 1, Workers: 4}); err != nil {
			t.Fatal(err)
		}
		got[name] = poolCosts(s)
	}
	workgolden.Check(t, *updateWork, "aligned.pool_costs", got)
}

// poolCosts returns the (cell, plan) pairs the induced replacements of
// every contour planned on the Space have costed.
func poolCosts(s *ess.Space) int {
	t := table(s)
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.costed
}
