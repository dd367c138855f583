package repro

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/telemetry"
)

// execEvents filters the stream to the budgeted-execution events (the ones
// with a one-to-one Steps counterpart).
func execEvents(events []telemetry.Event) []telemetry.Event {
	var out []telemetry.Event
	for _, ev := range events {
		if ev.Kind == telemetry.PlanExec || ev.Kind == telemetry.SpillExec {
			out = append(out, ev)
		}
	}
	return out
}

func kinds(events []telemetry.Event) []telemetry.Kind {
	out := make([]telemetry.Kind, len(events))
	for i, ev := range events {
		out[i] = ev.Kind
	}
	return out
}

// TestSpillBoundEventGolden pins the exact event sequence of a 2D SpillBound
// run: contour entry, engine budget accounting, spill-mode execution,
// half-space prune on full learning (Lemma 3.1), contour jumps (Lemma 3.2),
// the terminal 1-D phase's regular executions, and the Done summary — and
// that the rendered stream reproduces the legacy trace byte for byte.
func TestSpillBoundEventGolden(t *testing.T) {
	sess := newTestSession(t)
	truth := Location{0.02, 0.3}
	res, err := sess.Run(SpillBound, truth)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) == 0 {
		t.Fatal("run recorded no events")
	}
	for i, ev := range res.Events {
		if ev.Seq != i {
			t.Fatalf("event %d has Seq %d", i, ev.Seq)
		}
	}
	if got := telemetry.RenderTrace(res.Events); got != res.Trace {
		t.Errorf("rendered events diverge from trace:\n--- render ---\n%s--- trace ---\n%s", got, res.Trace)
	}

	// The stream opens by entering the cheapest contour.
	if first := res.Events[0]; first.Kind != telemetry.ContourEnter || first.Contour != 1 {
		t.Fatalf("first event = %+v, want contour_enter of contour 1", first)
	}
	if last := res.Events[len(res.Events)-1]; last.Kind != telemetry.Done {
		t.Fatalf("last event = %+v, want done", last)
	} else {
		if last.TotalCost != res.TotalCost || last.SubOpt != res.SubOpt || last.Algorithm != "spillbound" {
			t.Errorf("done summary %+v does not match result (cost %g subopt %g)", last, res.TotalCost, res.SubOpt)
		}
	}

	// Golden kind sequence, reconstructed from the step list: every step is
	// an engine budget_spend followed by its execution event, a completed
	// spill is followed by its half-space prune, and the stream ends with
	// done. Contour entries are validated separately (they also fire for
	// contours the discovery skips without executing).
	var want []telemetry.Kind
	for _, st := range res.Steps {
		want = append(want, telemetry.BudgetSpend)
		if st.SpillDim >= 0 {
			want = append(want, telemetry.SpillExec)
			if st.Completed {
				want = append(want, telemetry.HalfSpacePrune)
			}
		} else {
			want = append(want, telemetry.PlanExec)
		}
	}
	want = append(want, telemetry.Done)
	var got []telemetry.Kind
	for _, ev := range res.Events {
		if ev.Kind != telemetry.ContourEnter {
			got = append(got, ev.Kind)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("event kinds = %v, want %v", got, want)
	}

	// Contour entries advance strictly (Lemma 3.2's quantum progress: the
	// discovery never revisits a cheaper contour).
	lastContour := 0
	for _, ev := range res.Events {
		if ev.Kind != telemetry.ContourEnter {
			continue
		}
		if ev.Contour <= lastContour {
			t.Errorf("contour_enter %d after %d", ev.Contour, lastContour)
		}
		lastContour = ev.Contour
	}
	if lastContour < 2 {
		t.Errorf("discovery never jumped contours (max entered = %d)", lastContour)
	}

	// Execution events carry their step's exact fields.
	execs := execEvents(res.Events)
	if len(execs) != len(res.Steps) {
		t.Fatalf("%d execution events for %d steps", len(execs), len(res.Steps))
	}
	sawSpill, sawPrune, sawPlan := false, false, false
	for i, ev := range execs {
		st := res.Steps[i]
		if ev.Contour != st.Contour || ev.PlanID != st.PlanID || ev.Dim != st.SpillDim ||
			ev.Budget != st.Budget || ev.Spent != st.Spent || ev.Completed != st.Completed {
			t.Errorf("event %d = %+v does not match step %+v", i, ev, st)
		}
		if ev.Kind == telemetry.SpillExec {
			sawSpill = true
			if ev.Learned != st.Learned {
				t.Errorf("spill event learned %g != step %g", ev.Learned, st.Learned)
			}
		} else {
			sawPlan = true
		}
	}
	for _, ev := range res.Events {
		if ev.Kind == telemetry.HalfSpacePrune {
			sawPrune = true
			if ev.Dim < 0 || ev.Learned <= 0 {
				t.Errorf("prune event %+v missing dim/learned", ev)
			}
		}
	}
	if !sawSpill || !sawPrune || !sawPlan {
		t.Errorf("2D SpillBound run should spill (%t), prune (%t) and finish in the 1-D phase (%t)",
			sawSpill, sawPrune, sawPlan)
	}

	// The stream is deterministic: an identical run records identical events.
	again, err := sess.Run(SpillBound, truth)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Events, again.Events) {
		t.Errorf("identical runs recorded different event streams:\n%v\n%v",
			kinds(res.Events), kinds(again.Events))
	}
}

// TestNativeRunEvents pins the baseline's minimal stream: one native
// execution event and the summary.
func TestNativeRunEvents(t *testing.T) {
	sess := newTestSession(t)
	res, err := sess.Run(Native, Location{0.02, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	got := kinds(res.Events)
	want := []telemetry.Kind{telemetry.PlanExec, telemetry.Done}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("native event kinds = %v, want %v", got, want)
	}
	if res.Events[0].Mode != "native" || !res.Events[0].Completed {
		t.Errorf("native exec event = %+v", res.Events[0])
	}
	if telemetry.RenderTrace(res.Events) != res.Trace {
		t.Errorf("native render mismatch:\n%s", res.Trace)
	}
	if !strings.HasPrefix(res.Trace, "native: plan at estimate") {
		t.Errorf("trace = %q", res.Trace)
	}
}

// TestDegradedRunEventGolden drives a persistent fault through the ladder
// and pins the resilience half of the stream: the retry attempts, the final
// give-up note, the Degrade record, and the derived RunResult fields.
func TestDegradedRunEventGolden(t *testing.T) {
	sess := newTestSession(t)
	ctx := WithFaults(context.Background(), &FaultPlan{FailExecAt: 2, FailExecCount: 1000})
	res, err := sess.RunContext(ctx, SpillBound, Location{0.02, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatalf("run not degraded:\n%s", res.Trace)
	}
	if telemetry.RenderTrace(res.Events) != res.Trace {
		t.Errorf("rendered events diverge from degraded trace:\n%s", res.Trace)
	}

	attempts, finals := 0, 0
	finalSeq, degradeSeq := -1, -1
	var degrade telemetry.Event
	for _, ev := range res.Events {
		switch ev.Kind {
		case telemetry.Retry:
			if ev.Final {
				finals++
				finalSeq = ev.Seq
			} else {
				attempts++
			}
		case telemetry.Degrade:
			degradeSeq = ev.Seq
			degrade = ev
		}
	}
	if attempts != res.Retries {
		t.Errorf("retry attempt events = %d, RunResult.Retries = %d", attempts, res.Retries)
	}
	if attempts < 2 {
		t.Errorf("attempts = %d, want the default policy's 2", attempts)
	}
	if finals != 1 {
		t.Fatalf("final retry events = %d, want exactly 1", finals)
	}
	if degradeSeq < 0 {
		t.Fatal("no degrade event recorded")
	}
	if degradeSeq < finalSeq {
		t.Errorf("degrade (seq %d) precedes the give-up note (seq %d)", degradeSeq, finalSeq)
	}
	if degrade.Detail != res.DegradedReason {
		t.Errorf("degrade detail %q != DegradedReason %q", degrade.Detail, res.DegradedReason)
	}
	if degrade.Algorithm != "spillbound" || degrade.Guarantee != sess.Guarantee(SpillBound) {
		t.Errorf("degrade event %+v missing downgraded guarantee", degrade)
	}
	if last := res.Events[len(res.Events)-1]; last.Kind != telemetry.Done {
		t.Errorf("last event = %+v, want done", last)
	}
}

// TestConcurrentRunRecorders runs many recorders against one session at
// once (the race-detector half of the telemetry contract): every run's
// stream must be self-consistent and render exactly its own trace.
func TestConcurrentRunRecorders(t *testing.T) {
	sess := newTestSession(t)
	algos := []Algorithm{Native, PlanBouquet, SpillBound, AlignedBound}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a := algos[i%len(algos)]
			var res RunResult
			var err error
			if i%2 == 0 {
				res, err = sess.RunContext(context.Background(), a, Location{0.02, 0.3})
			} else {
				res, err = sess.RunContext(WithFaults(context.Background(), &FaultPlan{FailExecAt: 1}), a, Location{0.02, 0.3})
			}
			if err != nil {
				t.Errorf("run %d (%v): %v", i, a, err)
				return
			}
			for j, ev := range res.Events {
				if ev.Seq != j {
					t.Errorf("run %d: event %d has Seq %d (stream cross-contaminated?)", i, j, ev.Seq)
					return
				}
			}
			if telemetry.RenderTrace(res.Events) != res.Trace {
				t.Errorf("run %d (%v): rendered events diverge from trace", i, a)
			}
			if last := res.Events[len(res.Events)-1]; last.Kind != telemetry.Done {
				t.Errorf("run %d: last event %+v, want done", i, last)
			}
		}(i)
	}
	wg.Wait()
}
