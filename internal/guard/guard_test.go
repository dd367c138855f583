package guard

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/telemetry"
)

// stubExec is a scriptable substrate: execRes/spillRes are returned as-is,
// and honorCeiling makes it cooperate with the watchdog's cost ceiling the
// way the real engine does.
type stubExec struct {
	execRes      engine.Result
	spillRes     engine.SpillResult
	honorCeiling bool
	gotCeiling   float64
	hadCeiling   bool
}

func (s *stubExec) Execute(p *plan.Plan, budget float64) engine.Result { return s.execRes }

func (s *stubExec) ExecuteSpill(p *plan.Plan, dim int, budget float64) (engine.SpillResult, bool) {
	return s.spillRes, true
}

func (s *stubExec) ExecuteCtx(ctx context.Context, p *plan.Plan, budget float64) (engine.Result, error) {
	s.gotCeiling, s.hadCeiling = engine.CostCeiling(ctx)
	if s.honorCeiling && s.hadCeiling && s.execRes.Spent > s.gotCeiling {
		return engine.Result{Completed: false, Spent: s.gotCeiling}, engine.ErrBudgetAborted
	}
	return s.execRes, nil
}

func (s *stubExec) ExecuteSpillCtx(ctx context.Context, p *plan.Plan, dim int, budget float64) (engine.SpillResult, bool, error) {
	s.gotCeiling, s.hadCeiling = engine.CostCeiling(ctx)
	if s.honorCeiling && s.hadCeiling && s.spillRes.Spent > s.gotCeiling {
		res := s.spillRes
		res.Completed = false
		res.Spent = s.gotCeiling
		return res, true, engine.ErrBudgetAborted
	}
	return s.spillRes, true, nil
}

// countKind counts the recorded events of one kind: the watchdog's aborts
// and escapes are read from the stream it records into.
func countKind(rec *telemetry.Recorder, kind telemetry.Kind) int {
	n := 0
	for _, ev := range rec.Events() {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}

func TestWatchdogArmsCeilingWithSlack(t *testing.T) {
	stub := &stubExec{execRes: engine.Result{Completed: true, Spent: 50}}
	w := New(stub, Policy{BudgetSlack: 0.25})
	rec := telemetry.NewRecorder()
	res, err := w.ExecuteCtx(telemetry.With(context.Background(), rec), nil, 100)
	if err != nil || !res.Completed {
		t.Fatalf("clean run should pass through: res=%+v err=%v", res, err)
	}
	if !stub.hadCeiling || stub.gotCeiling != 125 {
		t.Fatalf("ceiling = (%g,%v), want (125,true)", stub.gotCeiling, stub.hadCeiling)
	}
	if n := countKind(rec, telemetry.BudgetAbort); n != 0 {
		t.Fatalf("clean run recorded %d aborts", n)
	}
}

func TestWatchdogClampsNonCooperativeOverrun(t *testing.T) {
	stub := &stubExec{execRes: engine.Result{Completed: false, Spent: 200}}
	w := New(stub, Policy{BudgetSlack: 0.1})
	rec := telemetry.NewRecorder()
	ctx := telemetry.With(context.Background(), rec)

	res, err := w.ExecuteCtx(ctx, nil, 100)
	if !engine.IsBudgetAbort(err) {
		t.Fatalf("err = %v, want budget abort", err)
	}
	if res.Completed || math.Abs(res.Spent-110) > 1e-9 {
		t.Fatalf("res = %+v, want incomplete spent at ceiling 110", res)
	}
	if !engine.Terminal(err) {
		t.Fatalf("budget abort must classify terminal")
	}
	if n := countKind(rec, telemetry.BudgetAbort); n != 1 {
		t.Fatalf("budget_abort events = %d, want 1", n)
	}
	evs := rec.Events()
	if len(evs) != 1 || evs[0].Kind != telemetry.BudgetAbort || math.Abs(evs[0].Spent-110) > 1e-9 {
		t.Fatalf("events = %+v, want one budget_abort at 110", evs)
	}
}

func TestWatchdogPropagatesCooperativeAbort(t *testing.T) {
	stub := &stubExec{spillRes: engine.SpillResult{Completed: false, Spent: 300, Learned: 0.2}, honorCeiling: true}
	w := New(stub, Policy{})
	rec := telemetry.NewRecorder()
	res, ok, err := w.ExecuteSpillCtx(telemetry.With(context.Background(), rec), nil, 0, 100)
	if !ok || !engine.IsBudgetAbort(err) {
		t.Fatalf("ok=%v err=%v, want cooperative budget abort", ok, err)
	}
	if res.Spent != 100 {
		t.Fatalf("spent = %g, want clamped at ceiling 100 (slack 0)", res.Spent)
	}
	if res.Learned != 0.2 {
		t.Fatalf("partial learned bound must survive the abort, got %g", res.Learned)
	}
	if n := countKind(rec, telemetry.BudgetAbort); n != 1 {
		t.Fatalf("budget_abort events = %d, want 1", n)
	}
}

func TestWatchdogDetectsESSEscape(t *testing.T) {
	stub := &stubExec{spillRes: engine.SpillResult{Completed: true, Spent: 10, Learned: 42}}
	w := New(stub, Policy{BudgetSlack: 1})
	rec := telemetry.NewRecorder()
	ctx := telemetry.With(context.Background(), rec)

	_, ok, err := w.ExecuteSpillCtx(ctx, nil, 1, 100)
	if !ok || !IsEscape(err) {
		t.Fatalf("ok=%v err=%v, want ESS escape", ok, err)
	}
	if !engine.Terminal(err) {
		t.Fatalf("escape must classify terminal so the retry layer never re-runs it")
	}
	if n := countKind(rec, telemetry.ESSEscape); n != 1 {
		t.Fatalf("ess_escape events = %d, want 1", n)
	}
	evs := rec.Events()
	if len(evs) != 1 || evs[0].Kind != telemetry.ESSEscape || evs[0].Dim != 1 || evs[0].Learned != 42 {
		t.Fatalf("events = %+v, want one ess_escape on dim 1", evs)
	}
}

func TestWatchdogValidLearnedPassesThrough(t *testing.T) {
	for _, learned := range []float64{0, 0.5, 1} {
		stub := &stubExec{spillRes: engine.SpillResult{Completed: true, Spent: 10, Learned: learned}}
		w := New(stub, Policy{})
		_, _, err := w.ExecuteSpillCtx(context.Background(), nil, 0, 100)
		if err != nil {
			t.Fatalf("learned %g flagged as escape: %v", learned, err)
		}
	}
}

func TestWatchdogDisabledAndUnbudgetedPassThrough(t *testing.T) {
	stub := &stubExec{execRes: engine.Result{Completed: false, Spent: 1e6}}
	w := New(stub, Policy{Disabled: true})
	if _, err := w.ExecuteCtx(context.Background(), nil, 1); err != nil {
		t.Fatalf("disabled watchdog must not abort: %v", err)
	}
	w = New(stub, Policy{})
	if _, err := w.ExecuteCtx(context.Background(), nil, inf()); err != nil {
		t.Fatalf("unbudgeted execution must not be guarded: %v", err)
	}
	if stub.hadCeiling {
		t.Fatalf("unbudgeted execution saw a ceiling")
	}
}

func inf() float64 { var z float64; return 1 / z }

func TestAIMDGrowsAndShrinks(t *testing.T) {
	l := NewAIMD(2, 1, 8)
	if !l.TryAcquire() || !l.TryAcquire() {
		t.Fatal("limiter must admit up to its initial limit")
	}
	if l.TryAcquire() {
		t.Fatal("limiter admitted past its limit")
	}
	l.Release(true)
	l.Release(true)
	if l.Limit() <= 2 {
		t.Fatalf("limit = %g, want additive growth past 2", l.Limit())
	}
	for i := 0; i < 10; i++ {
		if l.TryAcquire() {
			l.Release(false)
		}
	}
	if l.Limit() != 1 {
		t.Fatalf("limit = %g, want multiplicative decrease to floor 1", l.Limit())
	}
	for i := 0; i < 100; i++ {
		if l.TryAcquire() {
			l.Release(true)
		}
	}
	if l.Limit() > 8 {
		t.Fatalf("limit = %g, want capped at 8", l.Limit())
	}
	if l.Inflight() != 0 {
		t.Fatalf("inflight = %d, want 0 after paired releases", l.Inflight())
	}
}

func TestAIMDNilSafe(t *testing.T) {
	var l *AIMD
	if !l.TryAcquire() {
		t.Fatal("nil limiter must admit")
	}
	l.Release(true)
	if l.Limit() != 0 || l.Inflight() != 0 {
		t.Fatal("nil limiter must report zeros")
	}
}

func TestBulkhead(t *testing.T) {
	b := NewBulkhead(2)
	if !b.TryAcquire() || !b.TryAcquire() {
		t.Fatal("bulkhead must admit up to cap")
	}
	if b.TryAcquire() {
		t.Fatal("bulkhead admitted past cap")
	}
	b.Release()
	if !b.TryAcquire() {
		t.Fatal("released slot must be reusable")
	}
	if nb := NewBulkhead(0); nb != nil {
		t.Fatal("cap 0 must mean unlimited (nil)")
	}
	var nilB *Bulkhead
	if !nilB.TryAcquire() {
		t.Fatal("nil bulkhead must admit")
	}
	nilB.Release()
}

func TestBreakerLifecycle(t *testing.T) {
	clock := time.Unix(0, 0)
	b := NewBreaker(2, time.Minute)
	b.now = func() time.Time { return clock }

	if !b.Allow() || b.State() != StateClosed {
		t.Fatal("fresh breaker must be closed")
	}
	b.Record(false)
	if b.State() != StateClosed {
		t.Fatal("one failure under threshold must not open")
	}
	b.Record(false)
	if b.State() != StateOpen {
		t.Fatal("threshold failures must open the breaker")
	}
	if b.Allow() {
		t.Fatal("open breaker must reject before cooldown")
	}
	clock = clock.Add(2 * time.Minute)
	if !b.Allow() {
		t.Fatal("expired cooldown must admit the half-open probe")
	}
	if b.State() != StateHalfOpen {
		t.Fatalf("state = %d, want half-open", b.State())
	}
	if b.Allow() {
		t.Fatal("only one probe may be in flight")
	}
	b.Record(false)
	if b.State() != StateOpen {
		t.Fatal("failed probe must re-open")
	}
	clock = clock.Add(2 * time.Minute)
	if !b.Allow() {
		t.Fatal("second probe after re-open")
	}
	b.Record(true)
	if b.State() != StateClosed || !b.Allow() {
		t.Fatal("successful probe must close the breaker")
	}
}

func TestBreakerNilSafe(t *testing.T) {
	var b *Breaker
	if !b.Allow() || b.State() != StateClosed {
		t.Fatal("nil breaker must admit and report closed")
	}
	b.Record(false)
	b.Forget()
	if b.RetryAfter() != 0 {
		t.Fatal("nil breaker must report zero RetryAfter")
	}
}

func TestBreakerRetryAfterReportsRemainingCooldown(t *testing.T) {
	clock := time.Unix(0, 0)
	b := NewBreaker(1, time.Minute)
	b.now = func() time.Time { return clock }

	if b.RetryAfter() != 0 {
		t.Fatal("closed breaker must report zero RetryAfter")
	}
	b.Record(false) // opens
	if got := b.RetryAfter(); got != time.Minute {
		t.Fatalf("freshly opened: RetryAfter = %v, want the full cooldown", got)
	}
	// The advertised wait shrinks as the cooldown elapses — the honest
	// Retry-After, not a constant.
	clock = clock.Add(45 * time.Second)
	if got := b.RetryAfter(); got != 15*time.Second {
		t.Fatalf("45s in: RetryAfter = %v, want 15s", got)
	}
	clock = clock.Add(time.Minute)
	if got := b.RetryAfter(); got != 0 {
		t.Fatalf("past cooldown: RetryAfter = %v, want 0 (probe due)", got)
	}
	if !b.Allow() || b.State() != StateHalfOpen {
		t.Fatal("cooldown expiry must admit the probe")
	}
	if got := b.RetryAfter(); got != 0 {
		t.Fatalf("half-open: RetryAfter = %v, want 0", got)
	}
}

func TestBreakerForgetReleasesProbeSlot(t *testing.T) {
	clock := time.Unix(0, 0)
	b := NewBreaker(1, time.Minute)
	b.now = func() time.Time { return clock }

	b.Record(false)
	clock = clock.Add(2 * time.Minute)
	if !b.Allow() {
		t.Fatal("probe must be admitted after cooldown")
	}
	if b.Allow() {
		t.Fatal("second concurrent probe must be rejected")
	}
	// The admitted request never exercised the dependency (e.g. it was
	// rejected for a duplicate ID): Forget must return the probe slot
	// without recording a verdict, so the circuit neither closes nor wedges.
	b.Forget()
	if b.State() != StateHalfOpen {
		t.Fatalf("state after Forget = %d, want half-open", b.State())
	}
	if !b.Allow() {
		t.Fatal("Forget must release the probe slot for the next request")
	}
	b.Record(true)
	if b.State() != StateClosed {
		t.Fatal("successful probe after Forget must close the circuit")
	}
}
