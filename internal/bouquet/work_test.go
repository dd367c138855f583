package bouquet

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

var updateWork = flag.Bool("update", false, "rewrite testdata/work_golden.json at the module root from the current code")

// workGolden is the module's pinned work counts: by counter, then by
// benchmark query.
const workGolden = "../../testdata/work_golden.json"

// TestReduceNodeEvalsGolden pins bouquet.node_evals, the plan-set nodes one
// Reduce at λ = 0.2 costs on each benchmark space, at one worker (see
// reduce). The count depends on no host, so a change that makes the
// reduction do more work fails here even where timings are too noisy to
// show it; one that makes it do less re-records the golden with -update.
func TestReduceNodeEvalsGolden(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	got := map[string]int{}
	for _, name := range []string{"4D_Q91", "5D_Q84", "6D_Q18"} {
		_, got[name] = reduce(benchmarkSpace(t, name), 0.2)
	}
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
	const counter = "bouquet.node_evals"
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
