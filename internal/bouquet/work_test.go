package bouquet

import (
	"flag"
	"testing"

	"repro/internal/workgolden"
)

var updateWork = flag.Bool("update", false, "rewrite this package's counters in testdata/work_golden.json at the module root from the current code")

// TestReduceNodeEvalsGolden pins bouquet.node_evals, the plan-set nodes one
// Reduce at λ = 0.2 costs on each benchmark space (see reduce). The count
// depends on no host or worker count, so a change that makes the reduction
// do more work fails here even where timings are too noisy to show it; one
// that makes it do less re-records the golden with -update.
func TestReduceNodeEvalsGolden(t *testing.T) {
	got := map[string]int{}
	for _, name := range benchmarkQueries {
		_, got[name] = reduce(benchmarkSpace(t, name), 0.2)
	}
	workgolden.Check(t, *updateWork, "bouquet.node_evals", got)
}

// TestBuildSplitsGolden pins optimizer.splits, the split evaluations of the
// whole-grid DP that builds each benchmark space (ess.Space.Splits), under
// the same rules: a rise fails, and a fall fails until re-recorded.
func TestBuildSplitsGolden(t *testing.T) {
	got := map[string]int{}
	for _, name := range benchmarkQueries {
		got[name] = benchmarkSpace(t, name).Splits()
	}
	workgolden.Check(t, *updateWork, "optimizer.splits", got)
}

// benchmarkQueries are the spaces the work counts are pinned on.
var benchmarkQueries = []string{"4D_Q91", "5D_Q84", "6D_Q18"}
