package repro

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faults"
	"repro/internal/telemetry"
)

// newDurableTestSession builds the shared 3D durable session the crash-resume
// tests run against (one ESS build serves every incarnation).
func newDurableTestSession(t *testing.T, dir string) *Session {
	t.Helper()
	opts := BenchmarkOptions()
	opts.GridRes = 7
	opts.DataDir = dir
	sess, err := NewBenchmarkSession(benchmarkQuery(t, "3D_Q91"), opts)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

func countEvents(evs []telemetry.Event, kind telemetry.Kind) int {
	n := 0
	for _, ev := range evs {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}

// TestCrashResumeChaos is the tentpole chaos suite: a 3D SpillBound run is
// killed at every contour checkpoint in turn, resumed from the durable
// snapshot, and each resumed incarnation must (a) reproduce the
// uninterrupted run's plan sequence and final discovery exactly, and
// (b) keep the total spend across incarnations within one contour iteration
// of the uninterrupted spend (bounded redo — the monotone-state argument of
// DESIGN.md, "Crash tolerance & durability").
func TestCrashResumeChaos(t *testing.T) {
	sess := newDurableTestSession(t, t.TempDir())
	ctx := context.Background()
	truth := Location{0.8, 0.01, 0.3}

	base, err := sess.RunDurable(ctx, SpillBound, truth, "base")
	if err != nil {
		t.Fatal(err)
	}
	if base.RunID != "base" || base.Resumed {
		t.Fatalf("baseline run metadata wrong: %+v", base)
	}
	K := countEvents(base.Events, telemetry.CheckpointSave)
	if K < 3 {
		t.Fatalf("baseline hit only %d checkpoints; the chaos sweep needs a multi-contour run", K)
	}
	if rs, err := sess.DurableRunState("base"); err != nil || !rs.Completed || rs.TotalCost != base.TotalCost {
		t.Fatalf("baseline snapshot not terminal with its result: %+v err=%v", rs, err)
	}

	// An execution's charge never exceeds its budget, and one SpillBound
	// contour iteration runs at most D spill executions, so one in-flight
	// contour iteration costs at most D times the largest per-step budget.
	maxBudget := 0.0
	for _, st := range base.Steps {
		maxBudget = math.Max(maxBudget, st.Budget)
	}
	redoBound := float64(sess.D())*maxBudget + 1e-9

	for k := 1; k <= K; k++ {
		rid := fmt.Sprintf("crash%d", k)
		crashed, err := sess.RunDurable(WithFaults(ctx, &FaultPlan{CrashAtCheckpoint: k}), SpillBound, truth, rid)
		if !faults.IsCrash(err) {
			t.Fatalf("k=%d: want crash, got err=%v", k, err)
		}
		if crashed.RunID != rid {
			t.Fatalf("k=%d: crashed result run id %q", k, crashed.RunID)
		}

		// The crash fired before checkpoint k persisted: the durable state is
		// the previous boundary's snapshot, still resumable.
		ck, err := sess.DurableRunState(rid)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if ck.Completed || ck.Resumed || ck.TotalCost != 0 {
			t.Fatalf("k=%d: crashed run's snapshot %+v, want an interrupted first incarnation without a result", k, ck)
		}
		spentCk := ck.Discovery.Spent

		resumed, err := sess.ResumeRun(ctx, rid)
		if err != nil {
			t.Fatalf("k=%d: resume: %v", k, err)
		}
		if !resumed.Resumed || resumed.RunID != rid {
			t.Fatalf("k=%d: resumed metadata wrong: %+v", k, resumed)
		}
		if countEvents(resumed.Events, telemetry.RunResume) != 1 {
			t.Errorf("k=%d: resumed stream missing its run_resume event", k)
		}

		// (a) Identical discovery: the resumed incarnation replays a suffix of
		// the uninterrupted run step-for-step and lands on the same final plan.
		p := len(base.Steps) - len(resumed.Steps)
		if p < 0 {
			t.Fatalf("k=%d: resumed run took %d steps, baseline only %d", k, len(resumed.Steps), len(base.Steps))
		}
		for i, st := range resumed.Steps {
			want := base.Steps[p+i]
			if st.Contour != want.Contour || st.SpillDim != want.SpillDim ||
				st.PlanID != want.PlanID || st.Spent != want.Spent || st.Completed != want.Completed {
				t.Fatalf("k=%d: step %d diverges from baseline suffix:\n got %+v\nwant %+v", k, i, st, want)
			}
		}
		if relDiff(resumed.TotalCost, base.TotalCost) > 1e-9 {
			t.Errorf("k=%d: resumed total %g != baseline %g", k, resumed.TotalCost, base.TotalCost)
		}
		if resumed.SubOpt > sess.Guarantee(SpillBound) {
			t.Errorf("k=%d: resumed SubOpt %g exceeds guarantee %g", k, resumed.SubOpt, sess.Guarantee(SpillBound))
		}

		// (b) Bounded redo: everything the crashed incarnation spent past its
		// last durable checkpoint is re-done on resume; that lost work is at
		// most one contour iteration.
		redo := crashed.TotalCost - spentCk
		if redo < -1e-9 || redo > redoBound {
			t.Errorf("k=%d: redo spend %g outside [0, %g]", k, redo, redoBound)
		}
		total := crashed.TotalCost + (resumed.TotalCost - spentCk)
		if total > base.TotalCost+redoBound {
			t.Errorf("k=%d: cross-incarnation spend %g exceeds uninterrupted %g + one contour %g",
				k, total, base.TotalCost, redoBound)
		}

		rs, err := sess.DurableRunState(rid)
		if err != nil || !rs.Completed || !rs.Resumed || rs.TotalCost != resumed.TotalCost || rs.SubOpt != resumed.SubOpt {
			t.Errorf("k=%d: resumed run's snapshot %+v (err=%v), want terminal and resumed with total %g, subOpt %g",
				k, rs, err, resumed.TotalCost, resumed.SubOpt)
		}
	}

	// Every crashed run was driven to completion: nothing is left interrupted.
	ids, err := sess.DurableRuns()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if rs, err := sess.DurableRunState(id); err != nil || !rs.Completed {
			t.Errorf("run %s left interrupted after the sweep (err=%v)", id, err)
		}
	}
}

// TestResumeMatchesForAllAlgorithms spot-checks the resume invariants for
// PlanBouquet and AlignedBound (the chaos sweep above covers SpillBound
// exhaustively): crash mid-run, resume, and land on the baseline's result.
func TestResumeMatchesForAllAlgorithms(t *testing.T) {
	sess := newDurableTestSession(t, t.TempDir())
	ctx := context.Background()
	truth := Location{0.8, 0.01, 0.3}
	for _, a := range []Algorithm{PlanBouquet, AlignedBound} {
		t.Run(a.String(), func(t *testing.T) {
			baseID := "base-" + a.String()
			base, err := sess.RunDurable(ctx, a, truth, baseID)
			if err != nil {
				t.Fatal(err)
			}
			K := countEvents(base.Events, telemetry.CheckpointSave)
			if K < 2 {
				t.Fatalf("baseline hit only %d checkpoints", K)
			}
			// Crash at a mid-run boundary, then resume to completion.
			rid := "crash-" + a.String()
			_, err = sess.RunDurable(WithFaults(ctx, &FaultPlan{CrashAtCheckpoint: (K + 1) / 2}), a, truth, rid)
			if !faults.IsCrash(err) {
				t.Fatalf("want crash, got %v", err)
			}
			resumed, err := sess.ResumeRun(ctx, rid)
			if err != nil {
				t.Fatal(err)
			}
			if !resumed.Resumed {
				t.Error("result not flagged as resumed")
			}
			if relDiff(resumed.TotalCost, base.TotalCost) > 1e-9 {
				t.Errorf("resumed total %g != baseline %g", resumed.TotalCost, base.TotalCost)
			}
			if len(resumed.Steps) == 0 || len(base.Steps) == 0 {
				t.Fatal("no steps recorded")
			}
			last, want := resumed.Steps[len(resumed.Steps)-1], base.Steps[len(base.Steps)-1]
			if last.PlanID != want.PlanID || !last.Completed {
				t.Errorf("final step %+v, want plan %d completed", last, want.PlanID)
			}
		})
	}
}

// TestSessionRehydratesPersistedESS proves a second session on the same data
// directory skips the optimizer enumeration entirely (the build-progress hook
// never fires) and behaves identically, while a grid-incompatible request
// falls back to a fresh build instead of serving a stale surface.
func TestSessionRehydratesPersistedESS(t *testing.T) {
	dir := t.TempDir()
	opts := BenchmarkOptions()
	opts.GridRes = 8
	opts.DataDir = dir
	builds := 0
	opts.BuildProgress = func(done, total int) { builds++ }
	opts.Workers = 1 // serial build so the progress counter needs no lock
	first, err := NewBenchmarkSession(benchmarkQuery(t, "2D_Q91"), opts)
	if err != nil {
		t.Fatal(err)
	}
	if builds == 0 {
		t.Fatal("first session did not build")
	}

	opts.BuildProgress = func(done, total int) {
		t.Error("rehydrated session re-ran the ESS build")
	}
	second, err := NewBenchmarkSession(benchmarkQuery(t, "2D_Q91"), opts)
	if err != nil {
		t.Fatal(err)
	}
	if second.POSPSize() != first.POSPSize() || second.ContourCount() != first.ContourCount() {
		t.Fatalf("rehydrated session differs: POSP %d/%d contours %d/%d",
			second.POSPSize(), first.POSPSize(), second.ContourCount(), first.ContourCount())
	}
	for _, a := range []Algorithm{PlanBouquet, SpillBound, AlignedBound} {
		if second.Guarantee(a) != first.Guarantee(a) {
			t.Errorf("%v guarantee %g != %g", a, second.Guarantee(a), first.Guarantee(a))
		}
	}
	truth := Location{0.01, 0.1}
	r1, err := first.Run(SpillBound, truth)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := second.Run(SpillBound, truth)
	if err != nil {
		t.Fatal(err)
	}
	if r1.TotalCost != r2.TotalCost || r1.SubOpt != r2.SubOpt || r1.Trace != r2.Trace {
		t.Errorf("rehydrated run diverges: %g/%g vs %g/%g", r2.TotalCost, r2.SubOpt, r1.TotalCost, r1.SubOpt)
	}

	// A different grid resolution must not accept the persisted surface.
	opts.GridRes = 6
	rebuilt := 0
	opts.BuildProgress = func(done, total int) { rebuilt++ }
	if _, err := NewBenchmarkSession(benchmarkQuery(t, "2D_Q91"), opts); err != nil {
		t.Fatal(err)
	}
	if rebuilt == 0 {
		t.Error("grid-mismatched session served the stale persisted ESS")
	}

	// A torn space file (crash mid-write of a non-atomic copy, disk
	// corruption) must fall back to a fresh build, never a partial session.
	if err := os.WriteFile(filepath.Join(dir, "space.ess"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	opts.GridRes = 8
	rebuilt = 0
	recovered, err := NewBenchmarkSession(benchmarkQuery(t, "2D_Q91"), opts)
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt == 0 {
		t.Error("corrupt persisted ESS did not trigger a rebuild")
	}
	if recovered.POSPSize() != first.POSPSize() {
		t.Errorf("rebuilt session POSP %d != %d", recovered.POSPSize(), first.POSPSize())
	}
}

// TestRejectedDurableRunLeavesNoSnapshot: a durable run whose truth the
// session rejects (out-of-range selectivity, wrong dimensionality) fails
// before its first snapshot, so no interrupted run is listed for Recover to
// resume.
func TestRejectedDurableRunLeavesNoSnapshot(t *testing.T) {
	opts := BenchmarkOptions()
	opts.GridRes = 8
	opts.DataDir = t.TempDir()
	sess, err := NewBenchmarkSession(benchmarkQuery(t, "2D_Q91"), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, truth := range []Location{{0.5, 2}, {0, 0.5}, {0.5}, {0.1, 0.1, 0.1}} {
		rid := fmt.Sprintf("bad%d", i)
		if _, err := sess.RunDurable(context.Background(), SpillBound, truth, rid); err == nil {
			t.Fatalf("truth %v accepted", truth)
		}
		if runs, err := sess.DurableRuns(); err != nil || len(runs) != 0 {
			t.Fatalf("after rejecting truth %v: runs %v (err %v), want none", truth, runs, err)
		}
	}
}

// TestDurableAPIGuards covers the durable surface's failure modes: plain
// sessions reject durable calls, the native baseline is not checkpointable,
// and completed or unknown runs are not resumable.
func TestDurableAPIGuards(t *testing.T) {
	ctx := context.Background()
	opts := BenchmarkOptions()
	opts.GridRes = 8
	plain, err := NewBenchmarkSession(benchmarkQuery(t, "2D_Q91"), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.RunDurable(ctx, SpillBound, Location{0.1, 0.1}, "r1"); err == nil {
		t.Error("RunDurable on a non-durable session should fail")
	}
	if _, err := plain.ResumeRun(ctx, "r1"); err == nil {
		t.Error("ResumeRun on a non-durable session should fail")
	}
	if _, err := plain.DurableRuns(); err == nil {
		t.Error("DurableRuns on a non-durable session should fail")
	}

	opts.DataDir = t.TempDir()
	sess, err := NewBenchmarkSession(benchmarkQuery(t, "2D_Q91"), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.RunDurable(ctx, Native, Location{0.1, 0.1}, "r1"); err == nil {
		t.Error("Native runs have no discovery state to checkpoint")
	}
	if _, err := sess.RunDurable(ctx, SpillBound, Location{0.1, 0.1}, "../evil"); err == nil {
		t.Error("path-traversal run ids must be rejected")
	}
	if _, err := sess.ResumeRun(ctx, "nope"); err == nil {
		t.Error("unknown run id should fail")
	}
	if _, err := sess.RunDurable(ctx, SpillBound, Location{0.1, 0.1}, "done"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.ResumeRun(ctx, "done"); err == nil {
		t.Error("completed runs are not resumable")
	}
	runs, err := sess.DurableRuns()
	if err != nil {
		t.Fatal(err)
	}
	if !containsString(runs, "done") {
		t.Errorf("runs = %v, want done listed", runs)
	}
	if _, err := sess.DurableRunState("nope"); err == nil {
		t.Error("unknown run id loads")
	}
}

func containsString(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}
