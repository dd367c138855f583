package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/plan"
	"repro/internal/telemetry"
)

// scriptedExec fails (or panics) for the first N calls, then succeeds.
type scriptedExec struct {
	failures  int
	panics    int
	calls     int
	lastErr   error
	succeedAs Result
}

func (s *scriptedExec) step() error {
	s.calls++
	if s.panics > 0 {
		s.panics--
		panic("scripted operator bug")
	}
	if s.failures > 0 {
		s.failures--
		if s.lastErr == nil {
			s.lastErr = errors.New("scripted failure")
		}
		return s.lastErr
	}
	return nil
}

func (s *scriptedExec) Execute(p *plan.Plan, budget float64) Result { return s.succeedAs }
func (s *scriptedExec) ExecuteSpill(p *plan.Plan, dim int, budget float64) (SpillResult, bool) {
	return SpillResult{}, true
}
func (s *scriptedExec) ExecuteCtx(ctx context.Context, p *plan.Plan, budget float64) (Result, error) {
	if err := s.step(); err != nil {
		return Result{}, err
	}
	return s.succeedAs, nil
}
func (s *scriptedExec) ExecuteSpillCtx(ctx context.Context, p *plan.Plan, dim int, budget float64) (SpillResult, bool, error) {
	if err := s.step(); err != nil {
		return SpillResult{}, false, err
	}
	return SpillResult{Completed: true}, true, nil
}

// noSleep makes backoff instantaneous in tests.
func noSleep(ctx context.Context, d time.Duration) error { return ctx.Err() }

// recorded returns a context carrying a fresh recorder, which collects the
// retry events the resilience layer emits.
func recorded(ctx context.Context) (context.Context, *telemetry.Recorder) {
	rec := telemetry.NewRecorder()
	return telemetry.With(ctx, rec), rec
}

// retries counts the retry attempts in rec's stream, as a run's Retries
// does: the final give-up note is not an attempt.
func retries(rec *telemetry.Recorder) int {
	n := 0
	for _, ev := range rec.Events() {
		if ev.Kind == telemetry.Retry && !ev.Final {
			n++
		}
	}
	return n
}

func TestResilientRetriesTransientFailure(t *testing.T) {
	ex := &scriptedExec{failures: 2, succeedAs: Result{Completed: true, Spent: 7}}
	r := &Resilient{Exec: ex, Sleep: noSleep}
	ctx, rec := recorded(context.Background())
	res, err := r.ExecuteCtx(ctx, nil, 100)
	if err != nil {
		t.Fatalf("retries should absorb 2 failures: %v", err)
	}
	if !res.Completed || res.Spent != 7 {
		t.Fatalf("result = %+v", res)
	}
	evs := rec.Events()
	if n := retries(rec); n != 2 {
		t.Fatalf("retries = %d, want 2", n)
	}
	if len(evs) != 2 {
		t.Fatalf("events = %v", evs)
	}
}

func TestResilientGivesUpAfterBudget(t *testing.T) {
	ex := &scriptedExec{failures: 10}
	r := &Resilient{Exec: ex, Sleep: noSleep}
	_, err := r.ExecuteCtx(context.Background(), nil, 100)
	var se *StepError
	if !errors.As(err, &se) {
		t.Fatalf("want StepError, got %v", err)
	}
	if se.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3 (1 + 2 retries)", se.Attempts)
	}
	if ex.calls != 3 {
		t.Fatalf("substrate calls = %d", ex.calls)
	}
}

func TestResilientRecoversPanic(t *testing.T) {
	ex := &scriptedExec{panics: 1, succeedAs: Result{Completed: true}}
	r := &Resilient{Exec: ex, Sleep: noSleep}
	res, err := r.ExecuteCtx(context.Background(), nil, 100)
	if err != nil {
		t.Fatalf("panic should be recovered and retried: %v", err)
	}
	if !res.Completed {
		t.Fatalf("result = %+v", res)
	}
}

func TestResilientPersistentPanicBecomesError(t *testing.T) {
	ex := &scriptedExec{panics: 5}
	r := &Resilient{Exec: ex, Sleep: noSleep}
	_, err := r.ExecuteCtx(context.Background(), nil, 100)
	var se *StepError
	if !errors.As(err, &se) {
		t.Fatalf("want StepError, got %v", err)
	}
}

func TestResilientDoesNotRetryCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ex := &scriptedExec{succeedAs: Result{Completed: true}}
	r := &Resilient{Exec: AsContextExecutor(plainOnly{ex}), Sleep: noSleep}
	ctx, rec := recorded(ctx)
	_, err := r.ExecuteCtx(ctx, nil, 100)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if n := retries(rec); n != 0 {
		t.Fatalf("cancellation must not be retried (retries = %d)", n)
	}
}

func TestResilientSpillRetry(t *testing.T) {
	ex := &scriptedExec{failures: 1}
	r := &Resilient{Exec: ex, Sleep: noSleep}
	res, ok, err := r.ExecuteSpillCtx(context.Background(), nil, 0, 100)
	if err != nil || !ok || !res.Completed {
		t.Fatalf("spill retry: res=%+v ok=%v err=%v", res, ok, err)
	}
}

// TestPolicyBackoffDoublesAndCaps pins the fixed retry schedule: the
// backoff doubles from 1ms, and the step gives up after two retries.
func TestPolicyBackoffDoublesAndCaps(t *testing.T) {
	ex := &scriptedExec{failures: 10}
	var slept []time.Duration
	r := &Resilient{Exec: ex, Sleep: func(ctx context.Context, d time.Duration) error {
		slept = append(slept, d)
		return nil
	}}
	_, err := r.ExecuteCtx(context.Background(), nil, 100)
	var se *StepError
	if !errors.As(err, &se) || se.Attempts != 3 {
		t.Fatalf("want a StepError after 3 attempts, got %v", err)
	}
	want := []time.Duration{time.Millisecond, 2 * time.Millisecond}
	if len(slept) != len(want) || slept[0] != want[0] || slept[1] != want[1] {
		t.Fatalf("backoffs = %v, want %v", slept, want)
	}
}

// plainOnly strips the context methods so AsContextExecutor takes the
// wrapping path (its pre-execution ctx check is what this test exercises).
type plainOnly struct{ e Executor }

func (p plainOnly) Execute(pl *plan.Plan, budget float64) Result { return p.e.Execute(pl, budget) }
func (p plainOnly) ExecuteSpill(pl *plan.Plan, dim int, budget float64) (SpillResult, bool) {
	return p.e.ExecuteSpill(pl, dim, budget)
}
