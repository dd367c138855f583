package bouquet

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateWork = flag.Bool("update", false, "rewrite testdata/work_golden.json at the module root from the current code")

// workGolden is the module's pinned work counts: by counter, then by
// benchmark query.
const workGolden = "../../testdata/work_golden.json"

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
	checkWork(t, "bouquet.node_evals", got)
}

// TestBuildSplitsGolden pins optimizer.splits, the split evaluations of the
// whole-grid DP that builds each benchmark space (ess.Space.Splits), under
// the same rules: a rise fails, and a fall fails until re-recorded.
func TestBuildSplitsGolden(t *testing.T) {
	got := map[string]int{}
	for _, name := range benchmarkQueries {
		got[name] = benchmarkSpace(t, name).Splits()
	}
	checkWork(t, "optimizer.splits", got)
}

// benchmarkQueries are the spaces the work counts are pinned on.
var benchmarkQueries = []string{"4D_Q91", "5D_Q84", "6D_Q18"}

// checkWork compares one counter's per-query counts with the golden: a
// count above the golden fails, and so does one below it or missing from
// it, until -update re-records the counter. -update rewrites that counter
// only and keeps every other one in the file.
func checkWork(t *testing.T, counter string, got map[string]int) {
	t.Helper()
	golden := map[string]map[string]int{}
	raw, err := os.ReadFile(filepath.FromSlash(workGolden))
	if err != nil && !*updateWork {
		t.Fatal(err)
	}
	if err == nil {
		if err := json.Unmarshal(raw, &golden); err != nil {
			t.Fatalf("%s: %v", workGolden, err)
		}
	}
	if *updateWork {
		golden[counter] = got
		out, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.FromSlash(workGolden), append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for name, n := range got {
		want, ok := golden[counter][name]
		switch {
		case !ok:
			t.Errorf("%s %s: %d, not in %s; re-record with -update", counter, name, n, workGolden)
		case n > want:
			t.Errorf("%s %s rose: %d, golden %d", counter, name, n, want)
		case n < want:
			t.Errorf("%s %s fell: %d, golden %d; re-record with -update", counter, name, n, want)
		}
	}
}
