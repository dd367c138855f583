package repro

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/runstate"
)

// TestDurableEpochFencing drives the full zombie-owner scenario through the
// run layer: an owner starts a durable run, a new owner advances the
// session's ownership epoch mid-run (what fleet adoption does after a
// failover), and the old owner's next checkpoint write must be rejected
// terminally — no retry ladder, no Native degradation, and a snapshot still
// resumable by the new owner from the last pre-fence checkpoint, replaying a
// suffix identical to the uninterrupted baseline.
func TestDurableEpochFencing(t *testing.T) {
	dir := t.TempDir()
	sess := newDurableTestSession(t, dir)
	ctx := context.Background()
	truth := Location{0.8, 0.01, 0.3}

	base, err := sess.RunDurable(ctx, SpillBound, truth, "fence-base")
	if err != nil {
		t.Fatal(err)
	}
	if epoch := sess.store.Epoch(); epoch != 0 {
		t.Fatalf("fresh session epoch = %d; fencing must be inert at 0", epoch)
	}

	// A second store handle over the same durable state: the "new owner"
	// that advances the fence, and the poller that tells us the victim's
	// first checkpoint has landed.
	st, err := runstate.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Race the advance against the in-flight run: per-execution latency
	// keeps the run alive long after its first checkpoint, and the advance
	// fires as soon as that checkpoint is durable — every later write of the
	// epoch-0 incarnation must fence.
	advanced := make(chan error, 1)
	go func() {
		deadline := time.Now().Add(10 * time.Second)
		for {
			if _, err := st.LoadRun("fence-victim"); err == nil {
				break
			}
			if time.Now().After(deadline) {
				advanced <- errors.New("victim run never checkpointed")
				return
			}
			time.Sleep(time.Millisecond)
		}
		_, err := st.AdvanceEpoch("node-b")
		advanced <- err
	}()

	slow := WithFaults(ctx, &FaultPlan{Latency: 3 * time.Millisecond})
	victim, err := sess.RunDurable(slow, SpillBound, truth, "fence-victim")
	if aerr := <-advanced; aerr != nil {
		t.Fatal(aerr)
	}
	if !runstate.IsFenced(err) {
		t.Fatalf("superseded owner's run: want fenced error, got %v", err)
	}
	if faults.IsCrash(err) {
		t.Fatalf("fenced error misclassified as crash: %v", err)
	}
	// Terminal rejection: the fenced incarnation must not have retried its
	// way into the Native fallback — the run is simply over for this owner.
	if victim.Degraded {
		t.Fatalf("fenced run degraded to Native: %+v", victim.DegradedReason)
	}

	// The last pre-fence checkpoint is intact and resumable.
	if rs, err := sess.DurableRunState("fence-victim"); err != nil || rs.Completed {
		t.Fatalf("fenced run snapshot: %+v err=%v; want a resumable checkpoint", rs, err)
	}

	// The zombie's direct checkpoint write is rejected with the sentinel.
	zerr := st.SaveRun(&runstate.RunState{RunID: "fence-zombie", Algorithm: "spillbound", Epoch: 0})
	if !errors.Is(zerr, runstate.ErrFenced) || !runstate.IsFenced(zerr) {
		t.Fatalf("stale-epoch write: want ErrFenced, got %v", zerr)
	}
	if epoch, node, err := st.LoadEpoch(); err != nil || epoch != 1 || node != "node-b" {
		t.Fatalf("epoch record = (%d, %q, %v), want (1, node-b)", epoch, node, err)
	}

	// The new owner resumes from the last valid checkpoint. A fresh session
	// over the same durable state stands in for the adopting node; ResumeRun
	// re-stamps the current epoch, so the resume's own writes are not fenced.
	owner := newDurableTestSession(t, dir)
	resumed, err := owner.ResumeRun(ctx, "fence-victim")
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Resumed {
		t.Fatal("resumed result not flagged as resumed")
	}

	// Identical replay: the resumed incarnation is a step-for-step suffix of
	// the uninterrupted baseline and lands on the same total.
	p := len(base.Steps) - len(resumed.Steps)
	if p < 0 {
		t.Fatalf("resumed run took %d steps, baseline only %d", len(resumed.Steps), len(base.Steps))
	}
	for i, step := range resumed.Steps {
		want := base.Steps[p+i]
		if step.Contour != want.Contour || step.SpillDim != want.SpillDim ||
			step.PlanID != want.PlanID || step.Spent != want.Spent || step.Completed != want.Completed {
			t.Fatalf("step %d diverges from baseline suffix:\n got %+v\nwant %+v", i, step, want)
		}
	}
	if relDiff(resumed.TotalCost, base.TotalCost) > 1e-9 {
		t.Errorf("resumed total %g != baseline %g", resumed.TotalCost, base.TotalCost)
	}
	if rs, err := owner.DurableRunState("fence-victim"); err != nil || !rs.Completed {
		t.Errorf("resumed run's snapshot not terminal (err=%v)", err)
	}
}

// TestDurableEpochFencingInertWithoutFailover pins the compatibility
// contract: a session that never fails over never advances its epoch, so
// every write (epoch 0 vs absent epoch file) passes and crash-resume
// behaves exactly as before the fencing layer existed.
func TestDurableEpochFencingInertWithoutFailover(t *testing.T) {
	dir := t.TempDir()
	sess := newDurableTestSession(t, dir)
	ctx := context.Background()
	truth := Location{0.8, 0.01, 0.3}

	_, err := sess.RunDurable(WithFaults(ctx, &FaultPlan{CrashAtCheckpoint: 1}), SpillBound, truth, "inert")
	if !faults.IsCrash(err) {
		t.Fatalf("want crash, got %v", err)
	}
	if resumed, err := sess.ResumeRun(ctx, "inert"); err != nil || !resumed.Resumed {
		t.Fatalf("single-owner resume must be untouched by fencing: %+v, %v", resumed, err)
	}
	if epoch := sess.store.Epoch(); epoch != 0 {
		t.Fatalf("epoch advanced without a failover: %d", epoch)
	}
}
