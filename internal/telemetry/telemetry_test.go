package telemetry

import (
	"context"
	"reflect"
	"runtime"
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
	if r.Events() != nil {
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

// TestEventsSpanBlocks reads a stream across its block boundaries: the
// copies see every event once, in order, whatever block it sits in.
func TestEventsSpanBlocks(t *testing.T) {
	r := NewRecorder()
	const n = 3*blockSize + 5
	for i := 0; i < n; i++ {
		r.Record(Event{Kind: PlanExec, Dim: -1, PlanID: i})
	}
	for _, from := range []int{0, 1, blockSize - 1, blockSize, 2*blockSize + 7, n - 1} {
		evs := r.EventsFrom(from)
		if len(evs) != n-from {
			t.Fatalf("EventsFrom(%d): %d events, want %d", from, len(evs), n-from)
		}
		for k, ev := range evs {
			if ev.Seq != from+k || ev.PlanID != from+k {
				t.Fatalf("EventsFrom(%d)[%d] = seq %d plan %d", from, k, ev.Seq, ev.PlanID)
			}
		}
	}
	if evs := r.Take(); len(evs) != n || evs[n-1].PlanID != n-1 || cap(evs) != n {
		t.Fatalf("Take: len %d cap %d, want an exact-size copy of %d events", len(evs), cap(evs), n)
	}
}

// TestTakeAllocs pins what one run's record costs once the block pool is
// warm: a 300-event Record…Take cycle allocates the recorder, the block
// list that outgrows the recorder's inline head (300 events fill 10
// blocks, the head holds 8) and Take's one exact-size copy. The blocks
// come from and go back to the pool.
func TestTakeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cycle := func() {
		r := NewRecorder()
		for i := 0; i < 300; i++ {
			if i%30 == 0 {
				r.EnterContour(i / 30)
			}
			r.Record(Event{Kind: PlanExec, Dim: -1, PlanID: i, Budget: 1, Spent: 1})
		}
		if evs := r.Take(); len(evs) != 310 {
			t.Fatalf("Take: %d events, want 310", len(evs))
		}
	}
	cycle() // warm the pool
	// The recorder, the block list past its head and Take's copy.
	const bound = 3
	if got := testing.AllocsPerRun(100, cycle); got > bound {
		t.Errorf("a 300-event run allocates %v times, want at most %d", got, bound)
	}
}

// TestRecordAfterTakeIsDropped: Take is the recorder's last use. A
// straggler's Record or EnterContour leaves the taken stream as it was and
// reaches no block, and every later read returns nil.
func TestRecordAfterTakeIsDropped(t *testing.T) {
	r := NewRecorder()
	r.EnterContour(1)
	r.Record(Event{Kind: PlanExec, Dim: -1, PlanID: 7})
	evs := r.Take()
	want := append([]Event(nil), evs...)
	r.Record(Event{Kind: Done, Dim: -1})
	r.EnterContour(2)
	if len(evs) != 2 || !reflect.DeepEqual(evs, want) {
		t.Fatalf("taken stream changed: %+v, want %+v", evs, want)
	}
	if r.Events() != nil || r.EventsFrom(0) != nil || r.Take() != nil {
		t.Error("a taken recorder still returns events")
	}
	var nilRec *Recorder
	if nilRec.Take() != nil {
		t.Error("nil recorder should take nothing")
	}
}

// TestReusedBlockHoldsNoPreviousRun: Take clears every block it hands back,
// so a block a new recorder draws from the pool holds none of the previous
// run's events (nor their Location slices and strings for the GC to keep).
func TestReusedBlockHoldsNoPreviousRun(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	prev := NewRecorder()
	for i := 0; i < blockSize+3; i++ {
		prev.Record(Event{Kind: Degrade, Dim: 2, Detail: "previous run", Location: []float64{0.5}, TotalCost: 9})
	}
	used := append([]*block(nil), prev.blocks...)
	prev.Take()
	for i, b := range used {
		if !reflect.DeepEqual(*b, block{}) {
			t.Fatalf("returned block %d is not cleared", i)
		}
	}
	next := NewRecorder()
	next.Record(Event{Kind: ContourEnter, Contour: 1, Dim: -1})
	b := next.blocks[0]
	if b[0].Kind != ContourEnter || b[0].Detail != "" || b[0].Location != nil {
		t.Fatalf("first event of the new run = %+v", b[0])
	}
	for i := 1; i < blockSize; i++ {
		if !reflect.DeepEqual(b[i], Event{}) {
			t.Fatalf("reused block slot %d holds %+v", i, b[i])
		}
	}
	if evs := next.Take(); len(evs) != 1 {
		t.Fatalf("new run's stream = %+v", evs)
	}
}

// TestConcurrentRecordAndTake races writers against the final Take under
// -race: the taken stream is a gapless prefix of what was recorded, and
// every event recorded after it is dropped.
func TestConcurrentRecordAndTake(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 200; i++ {
				r.Record(Event{Kind: BudgetSpend, Dim: -1, Spent: 1})
				r.EnterContour(i % 3)
			}
		}()
	}
	close(start)
	evs := r.Take()
	wg.Wait()
	for i, ev := range evs {
		if ev.Seq != i {
			t.Fatalf("taken event %d has seq %d", i, ev.Seq)
		}
	}
	if r.Events() != nil {
		t.Error("events recorded after Take were kept")
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
	retries := RenderTrace([]Event{
		{Kind: Retry, Detail: "a"},
		{Kind: Retry, Detail: "b"},
		{Kind: Retry, Detail: "giving up", Final: true},
		{Kind: Degrade, Detail: "cause"},
	})
	if strings.Contains(retries, "giving up\nresilience") {
		t.Error("final retry note ordering broken")
	}
}
