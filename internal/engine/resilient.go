// Degradation-aware execution (operational robustness). The paper bounds the
// damage of adversarial selectivity estimates; this file bounds the damage
// of operational failures with a fixed ladder: a failing execution step is
// retried with a doubling backoff, and a step that keeps failing aborts the
// discovery run with a typed error so the session layer can fall back to the
// Native (estimate-optimal) plan and report the downgraded guarantee —
// instead of panicking or hanging.

package engine

import (
	"context"
	"fmt"
	"time"

	"repro/internal/plan"
	"repro/internal/telemetry"
)

// The retry schedule: a failed step is re-attempted twice, after 1ms and
// then 2ms — enough to absorb transient faults without stretching a
// simulated run.
const (
	// maxRetries is the number of re-attempts after the first failure of a
	// single execution step. Past it the step error propagates.
	maxRetries = 2
	// baseBackoff is the delay before the first retry; each subsequent
	// retry doubles it.
	baseBackoff = time.Millisecond
)

// StepError wraps the terminal failure of one execution step after the
// retry budget is exhausted, so callers can distinguish "this step is
// broken, degrade" from cancellation.
type StepError struct {
	// Attempts is the total number of attempts made (1 + retries).
	Attempts int
	// Err is the last attempt's failure.
	Err error
}

func (e *StepError) Error() string {
	return fmt.Sprintf("engine: execution step failed after %d attempts: %v", e.Attempts, e.Err)
}

func (e *StepError) Unwrap() error { return e.Err }

// Resilient wraps a ContextExecutor with the retry half of the degradation
// ladder: panics in the substrate are recovered into errors, failed steps
// are retried on the fixed schedule above, and terminal errors are never
// retried. Each retry and give-up is recorded only as a retry event on the
// context's recorder (a run's RunResult.Retries counts them). It implements
// ContextExecutor, so discovery runners use it transparently.
type Resilient struct {
	// Exec is the wrapped substrate.
	Exec ContextExecutor
	// Sleep replaces time.Sleep in tests; nil uses a context-aware sleep.
	Sleep func(context.Context, time.Duration) error
}

// attempt runs fn once, converting a panic in the substrate into an error.
func attempt(fn func() error) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("engine: panic during execution: %v", rec)
		}
	}()
	return fn()
}

// retry drives fn through the backoff schedule. fn is re-invoked until it
// succeeds, the retries are exhausted (→ *StepError), or the failure is
// Terminal: cancellation, a budget abort, an ESS escape or an injected
// checkpoint crash propagate immediately — re-attempting cannot change the
// outcome and would double-charge the budget ledger.
func (r *Resilient) retry(ctx context.Context, kind string, fn func() error) error {
	var last error
	for n := 0; ; n++ {
		last = attempt(fn)
		if last == nil {
			return nil
		}
		if Terminal(last) {
			return last
		}
		if n >= maxRetries {
			note := fmt.Sprintf("%s: giving up after %d attempts: %v", kind, n+1, last)
			telemetry.From(ctx).Record(telemetry.Event{
				Kind: telemetry.Retry, Dim: -1, Detail: note, Final: true,
			})
			return &StepError{Attempts: n + 1, Err: last}
		}
		d := baseBackoff << n
		note := fmt.Sprintf("%s: attempt %d failed (%v), retrying in %s", kind, n+1, last, d)
		telemetry.From(ctx).Record(telemetry.Event{Kind: telemetry.Retry, Dim: -1, Detail: note})
		sleep := r.Sleep
		if sleep == nil {
			sleep = sleepUntil
		}
		if err := sleep(ctx, d); err != nil {
			return err
		}
	}
}

// sleepUntil sleeps for d or until ctx is done.
func sleepUntil(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ExecuteCtx runs the plan under budget with retry-on-failure.
func (r *Resilient) ExecuteCtx(ctx context.Context, p *plan.Plan, budget float64) (Result, error) {
	var res Result
	err := r.retry(ctx, "execute", func() error {
		var e error
		res, e = r.Exec.ExecuteCtx(ctx, p, budget)
		return e
	})
	return res, err
}

// ExecuteSpillCtx runs the spill-mode execution with retry-on-failure.
func (r *Resilient) ExecuteSpillCtx(ctx context.Context, p *plan.Plan, dim int, budget float64) (SpillResult, bool, error) {
	var res SpillResult
	var ok bool
	err := r.retry(ctx, "spill", func() error {
		var e error
		res, ok, e = r.Exec.ExecuteSpillCtx(ctx, p, dim, budget)
		return e
	})
	return res, ok, err
}

var _ ContextExecutor = (*Resilient)(nil)
