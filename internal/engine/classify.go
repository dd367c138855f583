// Error classification and the cost-ceiling contract of the budget
// watchdog (internal/guard). The paper's ledger analysis (Sec 3, MSO ≤
// 4(1+λ)ρ) assumes every budgeted execution is forcibly terminated at its
// contour budget; the watchdog enforces that assumption at run time by
// attaching a hard cost ceiling to the execution context. Substrates that
// meter their own work (this engine, internal/rowexec) consult the ceiling
// cooperatively and abort with ErrBudgetAborted the moment charged cost
// would cross it.
//
// Terminal answers the retry layer's only question: is an error worth
// re-attempting? Watchdog aborts, injected checkpoint crashes and context
// cancellation are terminal — re-running the step cannot change the outcome
// and would double-charge the ledger — while everything else (injected
// failures, panics recovered into errors, transient substrate trouble) is
// transient and rides the backoff schedule.
package engine

import (
	"context"
	"errors"

	"repro/internal/faults"
)

// ErrBudgetAborted marks an execution hard-aborted by the budget watchdog:
// its charged cost reached the guard's ceiling (budget plus the explicit λ
// slack) and the plan was cooperatively cancelled mid-flight. The partial
// charge up to the ceiling stands in the ledger; the discovery loops treat
// the execution as a failed (incomplete) step and continue at the next
// plan/contour. Terminal: never retried.
var ErrBudgetAborted = errors.New("engine: execution aborted at budget ceiling")

// IsBudgetAbort reports whether the error is a watchdog budget abort.
func IsBudgetAbort(err error) bool { return errors.Is(err, ErrBudgetAborted) }

// terminalError lets error types outside this package (e.g. the guard's
// ESS-escape) declare themselves terminal without an import cycle.
type terminalError interface{ Terminal() bool }

// Terminal reports whether an execution-step error must not be retried:
// context cancellation and deadline expiry, watchdog budget aborts,
// injected checkpoint crashes (faults.ErrCrashed / repro.ErrRunCrashed) and
// any error implementing Terminal() true are terminal — retrying cannot
// succeed and may double-charge the budget ledger; everything else is
// transient.
func Terminal(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	if errors.Is(err, ErrBudgetAborted) || faults.IsCrash(err) {
		return true
	}
	var te terminalError
	return errors.As(err, &te) && te.Terminal()
}

// ceilingKey is the private context key for the watchdog's cost ceiling.
type ceilingKey struct{}

// WithCostCeiling attaches a hard charged-cost ceiling to the context. The
// metering substrates stop the execution and return ErrBudgetAborted once
// their charge reaches the ceiling; the charge is clamped to it.
func WithCostCeiling(ctx context.Context, ceiling float64) context.Context {
	return context.WithValue(ctx, ceilingKey{}, ceiling)
}

// CostCeiling extracts the active cost ceiling; ok is false when no
// watchdog guards the execution.
func CostCeiling(ctx context.Context) (float64, bool) {
	c, ok := ctx.Value(ceilingKey{}).(float64)
	return c, ok
}
