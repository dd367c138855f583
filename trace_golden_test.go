package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faults"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Span-tree goldens: the trace layer promises that span trees are a pure,
// deterministic function of (trace ID, event stream), so the trees of a
// pinned scenario can be committed byte-for-byte like the event goldens.

const (
	goldenTraceparent = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	goldenTraceID     = "0af7651916cd43dd8448eb211c80319c"
)

// tracedCtx returns a context carrying the suite's fixed traceparent, so
// every pinned run joins the same trace and the span IDs are reproducible.
func tracedCtx(t *testing.T) context.Context {
	t.Helper()
	tp, err := trace.Parse(goldenTraceparent)
	if err != nil {
		t.Fatal(err)
	}
	return trace.WithContext(context.Background(), tp)
}

// goldenTraceEntry is one pinned span tree.
type goldenTraceEntry struct {
	Name string          `json:"name"`
	Tree json.RawMessage `json:"tree"`
}

// traceTreeJSON derives and indents the run's span tree for the golden file.
func traceTreeJSON(t *testing.T, res RunResult) json.RawMessage {
	t.Helper()
	if res.TraceID != goldenTraceID {
		t.Fatalf("run trace ID %q, want the fixed traceparent's %q", res.TraceID, goldenTraceID)
	}
	raw, err := trace.FromRun(res.TraceID, res.Events).JSON()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, raw, "    ", "  "); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// buildTraceGolden produces the pinned trees: a clean SpillBound scenario
// run, a fault-degraded run, and a crash-resumed run whose two incarnations
// share one trace ID.
func buildTraceGolden(t *testing.T) []goldenTraceEntry {
	t.Helper()
	sess := goldenSession(t, "2D_EQ", 8, "")

	clean, err := sess.RunContext(tracedCtx(t), SpillBound, Location{0.001, 0.05})
	if err != nil {
		t.Fatal(err)
	}

	degradeCtx := WithFaults(tracedCtx(t), &FaultPlan{FailExecAt: 2, FailExecCount: 1000})
	degraded, err := sess.RunContext(degradeCtx, SpillBound, Location{0.001, 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if !degraded.Degraded {
		t.Fatal("fault plan did not degrade the run")
	}

	durable := goldenSession(t, "2D_EQ", 8, t.TempDir())
	crashCtx := WithFaults(tracedCtx(t), &FaultPlan{CrashAtCheckpoint: 2})
	crashed, err := durable.RunDurable(crashCtx, SpillBound, Location{0.9, 0.9}, "golden-crash")
	if !faults.IsCrash(err) {
		t.Fatalf("want crash, got %v", err)
	}
	// The resume context carries no traceparent: the run must rejoin its
	// original trace from the durable snapshot, one trace ID spanning both
	// process incarnations.
	resumed, err := durable.ResumeRun(context.Background(), "golden-crash")
	if err != nil {
		t.Fatal(err)
	}
	if resumed.TraceID != crashed.TraceID || !resumed.Resumed {
		t.Fatalf("resumed incarnation trace %q != crashed %q", resumed.TraceID, crashed.TraceID)
	}

	return []goldenTraceEntry{
		{Name: "spillbound_clean", Tree: traceTreeJSON(t, clean)},
		{Name: "spillbound_degraded", Tree: traceTreeJSON(t, degraded)},
		{Name: "spillbound_crash_resumed", Tree: traceTreeJSON(t, resumed)},
	}
}

// TestTraceGolden pins the three scenario span trees against the committed
// golden. Regenerate with -update.
func TestTraceGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden suite builds two sessions; skipped in -short")
	}
	path := filepath.Join("testdata", "trace_golden.json")
	entries := buildTraceGolden(t)
	got, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	if *updateStrategyGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d trees)", path, len(entries))
		return
	}

	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		var wantEntries []goldenTraceEntry
		if err := json.Unmarshal(want, &wantEntries); err != nil {
			t.Fatalf("golden file corrupt: %v", err)
		}
		for i := range entries {
			if i >= len(wantEntries) {
				t.Fatalf("golden mismatch: %d trees generated, %d pinned", len(entries), len(wantEntries))
			}
			if string(entries[i].Tree) != string(wantEntries[i].Tree) {
				t.Fatalf("golden mismatch at %s:\n got: %s\nwant: %s",
					entries[i].Name, entries[i].Tree, wantEntries[i].Tree)
			}
		}
		t.Fatal("golden mismatch (document-level; regenerate with -update if intended)")
	}
}

// TestTraceSerialParallelIdentical proves the span-tree determinism claim
// across build parallelism: the same seed built with one worker and with
// four yields byte-identical build trees (chunk normalization) and
// byte-identical run trees (the ESS, and hence the discovery, is the same
// surface either way).
func TestTraceSerialParallelIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two sessions; skipped in -short")
	}
	type built struct {
		sess   *Session
		events []telemetry.Event
	}
	build := func(workers int) built {
		bq, ok := BenchmarkQueryByName("2D_EQ")
		if !ok {
			t.Fatal("unknown benchmark query")
		}
		opts := BenchmarkOptions()
		opts.GridRes = 8
		opts.Workers = workers
		rec := telemetry.NewRecorder()
		sess, err := NewBenchmarkSessionContext(telemetry.With(context.Background(), rec), bq, opts)
		if err != nil {
			t.Fatal(err)
		}
		return built{sess: sess, events: rec.Events()}
	}
	serial, parallel := build(1), build(4)

	a, err := trace.FromBuild(goldenTraceID, serial.events).JSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := trace.FromBuild(goldenTraceID, parallel.events).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("build trees diverge between 1 and 4 workers:\n%s\n%s", a, b)
	}

	runA, err := serial.sess.RunContext(tracedCtx(t), SpillBound, Location{0.001, 0.05})
	if err != nil {
		t.Fatal(err)
	}
	runB, err := parallel.sess.RunContext(tracedCtx(t), SpillBound, Location{0.001, 0.05})
	if err != nil {
		t.Fatal(err)
	}
	ja, err := trace.FromRun(runA.TraceID, runA.Events).JSON()
	if err != nil {
		t.Fatal(err)
	}
	jb, err := trace.FromRun(runB.TraceID, runB.Events).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Error("run trees diverge between serially and parallel-built sessions")
	}
}

// TestTraceResumeReplayDeterministic crashes two independent incarnation
// pairs at the same checkpoint and proves the resumed suffixes derive
// byte-identical span trees — the crash-resume path is as reproducible as
// the clean path.
func TestTraceResumeReplayDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two sessions; skipped in -short")
	}
	resumeTree := func() []byte {
		sess := goldenSession(t, "2D_EQ", 8, t.TempDir())
		ctx := WithFaults(tracedCtx(t), &FaultPlan{CrashAtCheckpoint: 2})
		_, err := sess.RunDurable(ctx, SpillBound, Location{0.9, 0.9}, "replay")
		if !faults.IsCrash(err) {
			t.Fatalf("want crash, got %v", err)
		}
		resumed, err := sess.ResumeRun(context.Background(), "replay")
		if err != nil {
			t.Fatal(err)
		}
		if resumed.TraceID != goldenTraceID {
			t.Fatalf("resumed trace %q did not rejoin the original", resumed.TraceID)
		}
		j, err := trace.FromRun(resumed.TraceID, resumed.Events).JSON()
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	if !bytes.Equal(resumeTree(), resumeTree()) {
		t.Error("two identical crash-resume replays derived different span trees")
	}
}
