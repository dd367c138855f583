package repro

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateStrategyGolden = flag.Bool("update", false, "rewrite strategy golden files")

// goldenRun is one pinned run: the session/strategy/truth coordinates plus
// the full RunResult (events, trace, steps) normalized for comparison.
type goldenRun struct {
	Query    string          `json:"query"`
	Strategy string          `json:"strategy"`
	Truth    []float64       `json:"truth"`
	Durable  bool            `json:"durable,omitempty"`
	Result   json.RawMessage `json:"result"`
}

// goldenSweep is one pinned whole-space sweep summary.
type goldenSweep struct {
	Query    string          `json:"query"`
	Strategy string          `json:"strategy"`
	Max      int             `json:"max"`
	Summary  json.RawMessage `json:"summary"`
}

// goldenDoc is the committed golden file layout.
type goldenDoc struct {
	Runs   []goldenRun   `json:"runs"`
	Sweeps []goldenSweep `json:"sweeps"`
}

// normalizeAlgorithm re-marshals v with its "Algorithm" field replaced by
// the strategy's canonical name, so the golden is stable across the
// Algorithm enum-to-string redesign (the only representation change the
// redesign is allowed to make).
func normalizeAlgorithm(t *testing.T, v interface{}, name string) json.RawMessage {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var m map[string]interface{}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	m["Algorithm"] = name
	out, err := json.MarshalIndent(m, "    ", "  ")
	if err != nil {
		t.Fatalf("remarshal: %v", err)
	}
	return out
}

// goldenSession builds the deterministic session used by the golden suite.
func goldenSession(t *testing.T, query string, res int, dataDir string) *Session {
	t.Helper()
	bq, ok := BenchmarkQueryByName(query)
	if !ok {
		t.Fatalf("unknown benchmark query %q", query)
	}
	opts := BenchmarkOptions()
	opts.GridRes = res
	opts.Workers = 1
	opts.DataDir = dataDir
	sess, err := NewBenchmarkSession(bq, opts)
	if err != nil {
		t.Fatalf("build %s: %v", query, err)
	}
	return sess
}

// buildStrategyGolden produces the full golden document from the live code.
func buildStrategyGolden(t *testing.T) goldenDoc {
	t.Helper()
	ctx := context.Background()
	strategies := []Algorithm{Native, PlanBouquet, SpillBound, AlignedBound}
	cases := []struct {
		query  string
		res    int
		truths [][]float64
	}{
		{"2D_EQ", 8, [][]float64{{0.9, 0.9}, {0.001, 0.05}}},
		{"3D_Q91", 5, [][]float64{{0.5, 0.2, 0.01}, {0.9, 0.9, 0.9}}},
	}

	var doc goldenDoc
	for _, c := range cases {
		sess := goldenSession(t, c.query, c.res, "")
		for _, a := range strategies {
			for _, truth := range c.truths {
				res, err := sess.RunContext(ctx, a, truth)
				if err != nil {
					t.Fatalf("%s/%s run %v: %v", c.query, a.String(), truth, err)
				}
				doc.Runs = append(doc.Runs, goldenRun{
					Query: c.query, Strategy: a.String(), Truth: truth,
					Result: normalizeAlgorithm(t, res, a.String()),
				})
			}
			sum, err := sess.SweepContext(ctx, a, 25)
			if err != nil {
				t.Fatalf("%s/%s sweep: %v", c.query, a.String(), err)
			}
			doc.Sweeps = append(doc.Sweeps, goldenSweep{
				Query: c.query, Strategy: a.String(), Max: 25,
				Summary: normalizeAlgorithm(t, sum, a.String()),
			})
		}
	}

	// One durable run pins the checkpoint event stream (checkpoint_save
	// cadence, ledger spends, run id detail) through the redesign.
	durable := goldenSession(t, "2D_EQ", 8, t.TempDir())
	res, err := durable.RunDurable(ctx, SpillBound, []float64{0.9, 0.9}, "golden-run")
	if err != nil {
		t.Fatalf("durable run: %v", err)
	}
	doc.Runs = append(doc.Runs, goldenRun{
		Query: "2D_EQ", Strategy: SpillBound.String(), Truth: []float64{0.9, 0.9},
		Durable: true,
		Result:  normalizeAlgorithm(t, res, SpillBound.String()),
	})
	return doc
}

// TestStrategyGoldenEquivalence pins Native/PB/SB/AB RunResults (events,
// trace, steps, costs) and sweep summaries against committed goldens, so
// the pluggable-strategy port can be verified behavior-identical. Run with
// -update to regenerate from the current code.
func TestStrategyGoldenEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("golden suite builds two sessions; skipped in -short")
	}
	path := filepath.Join("testdata", "strategy_golden.json")
	doc := buildStrategyGolden(t)
	got, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatalf("marshal golden doc: %v", err)
	}
	got = append(got, '\n')

	if *updateStrategyGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d runs, %d sweeps)", path, len(doc.Runs), len(doc.Sweeps))
		return
	}

	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if string(got) != string(want) {
		// Locate the first diverging entry for a readable failure.
		var wantDoc goldenDoc
		if err := json.Unmarshal(want, &wantDoc); err != nil {
			t.Fatalf("golden file corrupt: %v", err)
		}
		for i := range doc.Runs {
			if i >= len(wantDoc.Runs) {
				t.Fatalf("golden mismatch: %d runs generated, %d pinned", len(doc.Runs), len(wantDoc.Runs))
			}
			if string(doc.Runs[i].Result) != string(wantDoc.Runs[i].Result) {
				t.Fatalf("golden mismatch at run %d (%s/%s truth=%v):\n got: %s\nwant: %s",
					i, doc.Runs[i].Query, doc.Runs[i].Strategy, doc.Runs[i].Truth,
					doc.Runs[i].Result, wantDoc.Runs[i].Result)
			}
		}
		for i := range doc.Sweeps {
			if i >= len(wantDoc.Sweeps) {
				t.Fatalf("golden mismatch: %d sweeps generated, %d pinned", len(doc.Sweeps), len(wantDoc.Sweeps))
			}
			if string(doc.Sweeps[i].Summary) != string(wantDoc.Sweeps[i].Summary) {
				t.Fatalf("golden mismatch at sweep %d (%s/%s):\n got: %s\nwant: %s",
					i, doc.Sweeps[i].Query, doc.Sweeps[i].Strategy,
					doc.Sweeps[i].Summary, wantDoc.Sweeps[i].Summary)
			}
		}
		t.Fatalf("golden mismatch (document-level; regenerate with -update if intended)")
	}
}

// TestSweepRunEqualsRun pins SweepRun's contract on the golden sessions: for
// every registered strategy, the sweep evaluator's cost at a grid truth is
// exactly the TotalCost of a clean RunContext there, so sweep MSO and ASO
// measure the strategy a run executes.
func TestSweepRunEqualsRun(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct {
		query string
		res   int
	}{{"2D_EQ", 8}, {"3D_Q91", 5}} {
		sess := goldenSession(t, c.query, c.res, "")
		g := sess.space.Grid
		cells := []int{0, g.Size() / 3, g.Size() / 2, 2 * g.Size() / 3, g.Size() - 1}
		for _, name := range strategyNames() {
			st, _ := LookupStrategy(name)
			sweep := st.SweepRun(sess)
			for _, ci := range cells {
				truth := g.Location(ci)
				res, err := sess.RunContext(ctx, Algorithm(name), truth)
				if err != nil {
					t.Fatalf("%s/%s run at %v: %v", c.query, name, truth, err)
				}
				if got := sweep(truth); got != res.TotalCost {
					t.Errorf("%s/%s at %v: sweep cost %v, run TotalCost %v", c.query, name, truth, got, res.TotalCost)
				}
			}
		}
	}
}
