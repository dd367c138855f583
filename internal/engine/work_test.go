package engine_test

import (
	"context"
	"flag"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/ess"
	"repro/internal/metrics"
	"repro/internal/spillbound"
	"repro/internal/workgolden"
	"repro/internal/workload"
)

var updateWork = flag.Bool("update", false, "rewrite this package's counters in testdata/work_golden.json at the module root from the current code")

// TestBoundProbesGolden pins engine.bound_probes, the spilled-subtree
// costings the monitoring bounds of a 400-location SpillBound sweep (the
// benchmark sessions' seed) make, summed over the sweep's engines.
func TestBoundProbesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps two benchmark spaces; skipped in -short")
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
		r := spillbound.NewRunner(s)
		if _, err := metrics.SweepContext(context.Background(), s, func(truth cost.Location) float64 {
			e := engine.New(m, truth)
			total := r.Run(e).TotalCost
			got[name] += e.Probes()
			return total
		}, metrics.SweepOptions{MaxLocations: 400, Seed: 1, Workers: 1}); err != nil {
			t.Fatal(err)
		}
	}
	workgolden.Check(t, *updateWork, "engine.bound_probes", got)
}
