package runstate

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/telemetry"
)

func newStore(t *testing.T) *Store {
	t.Helper()
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestStoreRoundTrip(t *testing.T) {
	st := newStore(t)
	rs := RunState{
		RunID: "r1", Algorithm: "spillbound", Truth: []float64{0.2, 0.5}, Seed: 7,
		Discovery: Discovery{
			Contour: 3, Spent: 42.5, Executions: 6, Events: 11,
			Learned: map[int]float64{0: 0.2},
			Bounds:  map[int]float64{1: 0.1},
		},
	}
	if err := st.SaveRun(&rs); err != nil {
		t.Fatal(err)
	}
	got, err := st.LoadRun("r1")
	if err != nil {
		t.Fatal(err)
	}
	if got.SchemaVersion != Version {
		t.Errorf("version = %d, want %d", got.SchemaVersion, Version)
	}
	if got.Algorithm != "spillbound" || got.Seed != 7 || got.Completed {
		t.Errorf("metadata mismatch: %+v", got)
	}
	if !reflect.DeepEqual(got.Discovery, rs.Discovery) {
		t.Errorf("discovery = %+v, want %+v", got.Discovery, rs.Discovery)
	}
}

func TestStoreRejectsBadRunIDs(t *testing.T) {
	st := newStore(t)
	for _, id := range []string{"", ".", "..", "a/b", `a\b`} {
		if err := st.SaveRun(&RunState{RunID: id}); err == nil {
			t.Errorf("SaveRun(%q) should fail", id)
		}
		if _, err := st.LoadRun(id); err == nil {
			t.Errorf("LoadRun(%q) should fail", id)
		}
	}
}

func TestStoreRejectsVersionSkew(t *testing.T) {
	st := newStore(t)
	if err := WriteFileAtomic(filepath.Join(st.Dir(), "runs", "old.json"),
		[]byte(`{"version":99,"runId":"old"}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.LoadRun("old"); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("version skew should fail, got %v", err)
	}
}

func TestInterruptedSkipsCompletedAndCorrupt(t *testing.T) {
	st := newStore(t)
	if err := st.SaveRun(&RunState{RunID: "live"}); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveRun(&RunState{RunID: "done", Completed: true}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(st.Dir(), "runs", "torn.json"), []byte("{junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	ids, err := st.Interrupted()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, []string{"live"}) {
		t.Errorf("interrupted = %v, want [live]", ids)
	}
	all, err := st.Runs()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(all, []string{"done", "live", "torn"}) {
		t.Errorf("runs = %v", all)
	}
}

func TestWriteFileAtomicReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	if err := WriteFileAtomic(path, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("two")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "two" {
		t.Fatalf("read %q, %v", data, err)
	}
	// No temp droppings left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("leftover temp files: %v", entries)
	}
}

// spill is a charged spill-mode execution event on dim: an incomplete one
// carries its monitoring lower bound in learned.
func spill(dim int, spent float64, completed bool, learned float64) telemetry.Event {
	return telemetry.Event{Kind: telemetry.SpillExec, Dim: dim, Spent: spent, Completed: completed, Learned: learned}
}

// countSaves counts the checkpoint_save events: one per persisted snapshot.
func countSaves(evs []telemetry.Event) int {
	n := 0
	for _, ev := range evs {
		if ev.Kind == telemetry.CheckpointSave {
			n++
		}
	}
	return n
}

func TestTrackerMonotoneState(t *testing.T) {
	st := newStore(t)
	tr := NewTracker(st, RunState{RunID: "r1", Algorithm: "spillbound"})
	rec := telemetry.NewRecorder()
	rec.EnterContour(1)
	rec.Record(spill(0, 10, false, 0.05))
	rec.Record(spill(0, 3, false, 0.02)) // lower bound never regresses
	rec.Record(telemetry.Event{Kind: telemetry.HalfSpacePrune, Dim: 1, Learned: 0.3})
	rec.EnterContour(2)
	rec.Record(spill(1, 2, false, 0.9)) // exact value wins over later bounds
	// The guard's safe-path execution is outside the ledger.
	rec.Record(telemetry.Event{Kind: telemetry.PlanExec, Dim: -1, Mode: "guard", Spent: 100, Completed: true})

	if _, err := tr.checkpoint(2, rec); err != nil {
		t.Fatal(err)
	}
	d := tr.State().Discovery
	if d.Spent != 15 || d.Executions != 3 {
		t.Errorf("ledger = %+v", d)
	}
	if d.Bounds[0] != 0.05 {
		t.Errorf("bound[0] = %g, want 0.05", d.Bounds[0])
	}
	if d.Learned[1] != 0.3 {
		t.Errorf("learned[1] = %g", d.Learned[1])
	}
	if _, ok := d.Bounds[1]; ok {
		t.Error("learnt dimension should drop its bound")
	}
	got, err := st.LoadRun("r1")
	if err != nil {
		t.Fatal(err)
	}
	if got.Discovery.Contour != 2 || got.Discovery.Events != 7 || got.Discovery.Spent != 15 {
		t.Errorf("checkpoint = %+v", got.Discovery)
	}
	if got.Completed {
		t.Error("checkpoint must not be terminal")
	}

	// Finish folds what was recorded after the last checkpoint, once: the
	// events the checkpoint already absorbed are not charged again.
	rec.Record(telemetry.Event{Kind: telemetry.PlanExec, Dim: -1, Spent: 1, Completed: true})
	rec.Record(telemetry.Event{Kind: telemetry.HalfSpacePrune, Dim: 0, Learned: 0.07})
	if err := tr.Finish(rec.Events()); err != nil {
		t.Fatal(err)
	}
	got, err = st.LoadRun("r1")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Completed {
		t.Error("Finish should mark the snapshot terminal")
	}
	if d := got.Discovery; d.Spent != 16 || d.Executions != 4 || d.Learned[0] != 0.07 || len(d.Bounds) != 0 {
		t.Errorf("terminal ledger = %+v, want spent 16 over 4 executions, dim 0 learnt", d)
	}
}

func TestCheckpointContextHelpers(t *testing.T) {
	st := newStore(t)
	tr := NewTracker(st, RunState{RunID: "r1"})
	rec := telemetry.NewRecorder()
	ctx := telemetry.With(With(context.Background(), tr), rec)

	rec.Record(telemetry.Event{Kind: telemetry.PlanExec, Dim: -1, Spent: 3})
	rec.Record(telemetry.Event{Kind: telemetry.HalfSpacePrune, Dim: 0, Learned: 0.2})
	if err := Checkpoint(ctx, 1); err != nil {
		t.Fatal(err)
	}
	evs := rec.Events()
	if n := countSaves(evs); n != 1 {
		t.Errorf("checkpoints = %d", n)
	}
	last := evs[len(evs)-1]
	if len(evs) != 3 || last.Kind != telemetry.CheckpointSave || last.Detail != "r1" || last.Spent != 3 {
		t.Errorf("events = %+v", evs)
	}
	if d := tr.State().Discovery; d.Learned[0] != 0.2 || d.Executions != 1 {
		t.Errorf("checkpoint did not fold the stream: %+v", d)
	}

	// A context without a tracker is a no-op sink, not a failure.
	if err := Checkpoint(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointCrashFiresBeforeSave(t *testing.T) {
	st := newStore(t)
	tr := NewTracker(st, RunState{RunID: "r1"})
	rec := telemetry.NewRecorder()
	ctx := faults.With(With(context.Background(), tr), &faults.Plan{CrashAtCheckpoint: 2})
	ctx = telemetry.With(ctx, rec)

	if err := Checkpoint(ctx, 0); err != nil {
		t.Fatal(err)
	}
	rec.Record(telemetry.Event{Kind: telemetry.PlanExec, Dim: -1, Spent: 10})
	err := Checkpoint(ctx, 1)
	if !faults.IsCrash(err) {
		t.Fatalf("checkpoint 2 should crash, got %v", err)
	}
	// The crash aborted the boundary before persisting: the durable state is
	// still the first checkpoint (contour 0, zero spend).
	got, lerr := st.LoadRun("r1")
	if lerr != nil {
		t.Fatal(lerr)
	}
	if got.Discovery.Contour != 0 || got.Discovery.Spent != 0 {
		t.Errorf("durable state advanced past the crash: %+v", got.Discovery)
	}
	if n := countSaves(rec.Events()); n != 1 {
		t.Errorf("persisted checkpoints = %d, want 1", n)
	}
}
