package telemetry

import (
	"context"
	"strings"
	"sync"
	"testing"
)

func TestRecorderSequencesEvents(t *testing.T) {
	r := NewRecorder()
	r.Record(Event{Kind: SpillExec, Dim: 1})
	r.Record(Event{Kind: Done, Dim: -1})
	evs := r.Events()
	if len(evs) != 2 || evs[0].Seq != 0 || evs[1].Seq != 1 {
		t.Fatalf("events = %+v", evs)
	}
	if r.Len() != 2 {
		t.Errorf("Len = %d", r.Len())
	}
	// The returned slice is a copy.
	evs[0].Kind = Degrade
	if r.Events()[0].Kind != SpillExec {
		t.Error("Events returned aliased storage")
	}
}

func TestEventsFromReadsTheSuffix(t *testing.T) {
	r := NewRecorder()
	for i := 0; i < 3; i++ {
		r.Record(Event{Kind: PlanExec, Dim: -1, PlanID: i})
	}
	if evs := r.EventsFrom(1); len(evs) != 2 || evs[0].Seq != 1 || evs[1].PlanID != 2 {
		t.Fatalf("EventsFrom(1) = %+v", evs)
	}
	if evs := r.EventsFrom(3); evs != nil {
		t.Fatalf("EventsFrom past the end = %+v, want nil", evs)
	}
	var nilRec *Recorder
	if nilRec.EventsFrom(0) != nil {
		t.Error("nil recorder should have no events")
	}
}

func TestChargedExecutions(t *testing.T) {
	for _, c := range []struct {
		ev   Event
		want bool
	}{
		{Event{Kind: PlanExec}, true},
		{Event{Kind: SpillExec, Dim: 0}, true},
		{Event{Kind: PlanExec, Mode: "native"}, false},
		{Event{Kind: PlanExec, Mode: "guard"}, false},
		{Event{Kind: BudgetSpend, Mode: "exec"}, false},
		{Event{Kind: BudgetAbort}, false},
		{Event{Kind: Degrade}, false},
	} {
		if got := c.ev.Charged(); got != c.want {
			t.Errorf("%s/%q Charged() = %v, want %v", c.ev.Kind, c.ev.Mode, got, c.want)
		}
	}
}

func TestNilRecorderIsNoop(t *testing.T) {
	var r *Recorder
	r.Record(Event{Kind: Done})
	r.EnterContour(3)
	if r.Events() != nil || r.Len() != 0 {
		t.Error("nil recorder should record nothing")
	}
}

func TestEnterContourDedupes(t *testing.T) {
	r := NewRecorder()
	r.EnterContour(1)
	r.EnterContour(1) // phase hand-off re-entry: deduped
	r.EnterContour(2)
	r.EnterContour(1) // going back is a real entry again
	var got []int
	for _, ev := range r.Events() {
		if ev.Kind != ContourEnter {
			t.Fatalf("unexpected kind %s", ev.Kind)
		}
		got = append(got, ev.Contour)
	}
	want := []int{1, 2, 1}
	if len(got) != len(want) {
		t.Fatalf("contours = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("contours = %v, want %v", got, want)
		}
	}
}

func TestContextRoundTrip(t *testing.T) {
	if From(context.Background()) != nil {
		t.Error("empty context should carry no recorder")
	}
	r := NewRecorder()
	ctx := With(context.Background(), r)
	if From(ctx) != r {
		t.Error("recorder lost on context")
	}
}

// TestConcurrentRecord exercises one shared recorder from many goroutines
// under -race: the engine and the resilience layer may both record while a
// step is in flight.
func TestConcurrentRecord(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Record(Event{Kind: BudgetSpend, Dim: -1, Spent: 1})
				r.EnterContour(i % 5)
			}
		}()
	}
	wg.Wait()
	evs := r.Events()
	for i, ev := range evs {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
	spends := 0
	for _, ev := range evs {
		if ev.Kind == BudgetSpend {
			spends++
		}
	}
	if spends != 800 {
		t.Errorf("spends = %d, want 800", spends)
	}
}

func TestRenderTraceFormats(t *testing.T) {
	events := []Event{
		{Kind: ContourEnter, Contour: 1, Dim: -1},
		{Kind: SpillExec, Contour: 1, Dim: 0, PlanID: 4, Budget: 2048, Learned: 0.0123},
		{Kind: BudgetSpend, Dim: 0, Budget: 2048, Spent: 2048},
		{Kind: SpillExec, Contour: 1, Dim: 1, PlanID: 7, Budget: 2048, Learned: 0.5, Repeat: true},
		{Kind: HalfSpacePrune, Contour: 1, Dim: 1, Learned: 0.5},
		{Kind: PlanExec, Contour: 2, Dim: -1, PlanID: 3, Budget: 4096, Completed: false},
		{Kind: PlanExec, Contour: 3, Dim: -1, PlanID: 3, Budget: 8192, Completed: true},
		{Kind: Retry, Dim: -1, Detail: "spill: attempt 1 failed (boom), retrying in 1ms"},
		{Kind: Done, Dim: -1, TotalCost: 12288, SubOpt: 1.5},
	}
	got := RenderTrace(events)
	want := "IC1: p4|2048 spill dim 0 → 0.0123\n" +
		"IC1: p7|2048 spill dim 1 → 0.5 (repeat)\n" +
		"IC2: P3|4096 ✗\n" +
		"IC3: P3|8192 ✓\n" +
		"resilience: spill: attempt 1 failed (boom), retrying in 1ms\n"
	if got != want {
		t.Errorf("trace:\n%q\nwant:\n%q", got, want)
	}
}

func TestRenderTraceNativeAndDegrade(t *testing.T) {
	native := RenderTrace([]Event{{
		Kind: PlanExec, Dim: -1, Mode: "native",
		Location: []float64{0.02, 0.3}, Spent: 123.456,
	}})
	if native != "native: plan at estimate (0.02, 0.3), cost 123.5\n" {
		t.Errorf("native line = %q", native)
	}
	deg := RenderTrace([]Event{{
		Kind: Degrade, Dim: -1, Detail: "engine: execution step failed after 3 attempts: boom",
		Location: []float64{0.1, 0.2}, Spent: 42, Guarantee: 10, Algorithm: "spillbound",
	}})
	want := "degraded: engine: execution step failed after 3 attempts: boom\n" +
		"degraded: falling back to native plan at estimate (0.1, 0.2), cost 42\n" +
		"degraded: guarantee downgraded from 10 (spillbound) to +Inf (native, no MSO bound)\n"
	if deg != want {
		t.Errorf("degrade trace:\n%q\nwant:\n%q", deg, want)
	}
}

func TestRetryAndDegradationHelpers(t *testing.T) {
	events := []Event{
		{Kind: Retry, Detail: "a"},
		{Kind: Retry, Detail: "b"},
		{Kind: Retry, Detail: "giving up", Final: true},
		{Kind: Degrade, Detail: "cause"},
	}
	if n := CountRetries(events); n != 2 {
		t.Errorf("retries = %d, want 2", n)
	}
	deg, reason := Degradation(events)
	if !deg || reason != "cause" {
		t.Errorf("degradation = %v %q", deg, reason)
	}
	deg, reason = Degradation(nil)
	if deg || reason != "" {
		t.Error("empty stream should not degrade")
	}
	if strings.Contains(RenderTrace(events), "giving up\nresilience") {
		t.Error("final retry note ordering broken")
	}
}
