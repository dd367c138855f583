package repro

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faults"
)

// ledgerEntry is one pinned durable snapshot: which run produced it and the
// persisted RunState with its random trace ID stripped.
type ledgerEntry struct {
	Query    string          `json:"query"`
	Strategy string          `json:"strategy"`
	Truth    []float64       `json:"truth"`
	Case     string          `json:"case"`
	Snapshot json.RawMessage `json:"snapshot"`
}

// ledgerSnapshot loads the persisted snapshot of runID as canonical JSON,
// with the trace ID cleared (it is minted at random per run).
func ledgerSnapshot(t *testing.T, sess *Session, runID string) json.RawMessage {
	t.Helper()
	rs, err := sess.store.LoadRun(runID)
	if err != nil {
		t.Fatalf("load %s: %v", runID, err)
	}
	rs.TraceID = ""
	b, err := json.Marshal(rs)
	if err != nil {
		t.Fatalf("marshal %s: %v", runID, err)
	}
	return b
}

// buildLedgerGolden records, for every resumable strategy on the golden
// sessions, the durable snapshot left by a crash at each checkpoint k until
// the run completes uncrashed, the terminal snapshot of the uninterrupted
// run, and the terminal snapshot of each crashed run once resumed.
func buildLedgerGolden(t *testing.T) []ledgerEntry {
	t.Helper()
	ctx := context.Background()
	cases := []struct {
		query string
		res   int
		truth []float64
	}{
		{"2D_EQ", 8, []float64{0.001, 0.05}},
		{"3D_Q91", 5, []float64{0.5, 0.2, 0.01}},
	}
	var doc []ledgerEntry
	for _, c := range cases {
		sess := goldenSession(t, c.query, c.res, t.TempDir())
		for _, info := range Strategies() {
			if !info.Resumable {
				continue
			}
			a := Algorithm(info.Name)
			add := func(kase, runID string) {
				doc = append(doc, ledgerEntry{
					Query: c.query, Strategy: info.Name, Truth: c.truth,
					Case: kase, Snapshot: ledgerSnapshot(t, sess, runID),
				})
			}
			if _, err := sess.RunDurable(ctx, a, c.truth, "clean"); err != nil {
				t.Fatalf("%s/%s clean: %v", c.query, a, err)
			}
			add("clean", "clean")
			for k := 1; ; k++ {
				rid := fmt.Sprintf("crash%d", k)
				_, err := sess.RunDurable(WithFaults(ctx, &FaultPlan{CrashAtCheckpoint: k}), a, c.truth, rid)
				if err == nil {
					break
				}
				if !faults.IsCrash(err) {
					t.Fatalf("%s/%s k=%d: %v", c.query, a, k, err)
				}
				add(fmt.Sprintf("crash@%d", k), rid)
				if _, err := sess.ResumeRun(ctx, rid); err != nil {
					t.Fatalf("%s/%s k=%d resume: %v", c.query, a, k, err)
				}
				add(fmt.Sprintf("resume@%d", k), rid)
			}
		}
	}
	return doc
}

// TestLedgerGolden pins the durable ledger of real runs — Spent,
// Executions, Learned, Bounds, the restart contour and the event count at
// every checkpoint — against testdata/ledger_golden.json, byte for byte.
// Run with -update to regenerate from the current code.
func TestLedgerGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("ledger golden builds two sessions; skipped in -short")
	}
	path := filepath.Join("testdata", "ledger_golden.json")
	doc := buildLedgerGolden(t)
	got, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if *updateStrategyGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d snapshots)", path, len(doc))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if string(got) == string(want) {
		return
	}
	var wantDoc []ledgerEntry
	if err := json.Unmarshal(want, &wantDoc); err != nil {
		t.Fatalf("golden file corrupt: %v", err)
	}
	for i := range doc {
		if i >= len(wantDoc) {
			t.Fatalf("golden mismatch: %d snapshots generated, %d pinned", len(doc), len(wantDoc))
		}
		if string(doc[i].Snapshot) != string(wantDoc[i].Snapshot) || doc[i].Case != wantDoc[i].Case {
			t.Fatalf("golden mismatch at %d (%s/%s %s):\n got: %s\nwant: %s", i,
				doc[i].Query, doc[i].Strategy, doc[i].Case, doc[i].Snapshot, wantDoc[i].Snapshot)
		}
	}
	t.Fatalf("golden mismatch: %d snapshots generated, %d pinned", len(doc), len(wantDoc))
}
