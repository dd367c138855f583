// Package workgolden checks host-independent work counts against the
// module's golden, testdata/work_golden.json: per counter, one count per
// benchmark query. A count that depends on no host or worker count shows
// a change that makes a layer do more work even where timings are too
// noisy to. The packages whose work is counted check their own counters
// through Check.
package workgolden

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// Path is the golden file, relative to a package directory under
// internal/, where a package's tests run.
const Path = "../../testdata/work_golden.json"

// Check compares one counter's per-query counts with the golden: a count
// above the golden fails, and so does one below it or missing from it,
// until update re-records the counter. update rewrites that counter only
// and keeps every other one in the file.
func Check(t testing.TB, update bool, counter string, got map[string]int) {
	t.Helper()
	golden := map[string]map[string]int{}
	raw, err := os.ReadFile(filepath.FromSlash(Path))
	if err != nil && !update {
		t.Fatal(err)
	}
	if err == nil {
		if err := json.Unmarshal(raw, &golden); err != nil {
			t.Fatalf("%s: %v", Path, err)
		}
	}
	if update {
		golden[counter] = got
		out, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.FromSlash(Path), append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for name, n := range got {
		want, ok := golden[counter][name]
		switch {
		case !ok:
			t.Errorf("%s %s: %d, not in %s; re-record with -update", counter, name, n, Path)
		case n > want:
			t.Errorf("%s %s rose: %d, golden %d", counter, name, n, want)
		case n < want:
			t.Errorf("%s %s fell: %d, golden %d; re-record with -update", counter, name, n, want)
		}
	}
}
