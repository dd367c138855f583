// Package guard enforces the runtime side of the paper's guarantees. The
// MSO bounds (PlanBouquet's 4(1+λ)ρ, SpillBound's D²+3D) are theorems about
// what the executor is *supposed* to do: charge at most the contour budget
// per execution and keep every probed location inside the ESS. A misbehaving
// operator breaks both premises silently. This package turns the premises
// into runtime invariants:
//
//   - The budget watchdog (this file) caps what any single budgeted
//     execution may charge at budget·(1+Slack), with the λ-style slack
//     explicit. An execution that would charge past the ceiling is
//     hard-aborted via cooperative cancellation (engine.WithCostCeiling),
//     the clamped charge stands in the ledger, a budget_abort event is
//     recorded, and discovery resumes with the next plan/contour — exactly
//     the "failed step" shape the MSO proofs already account for.
//
//   - The ESS-escape fallback (also this file) checks every learned
//     selectivity against the ESS axioms. A value the space cannot contain
//     (negative, non-finite, or past 1) means run-time monitoring has gone
//     wrong and the discovery index would leave the enumerated space; the
//     guard records an ess_escape event and returns a terminal error the
//     session layer converts into the safe path (the max-corner terminal
//     plan, which Lemma 3.2 guarantees completes at any ESS location).
//
//   - The overload controls (limiter.go, breaker.go) apply the same
//     philosophy to the serving layer: bound concurrent work, shed the
//     excess early, and stop hammering a failing dependency.
package guard

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/telemetry"
)

// essEps is the tolerance above 1 before a learned selectivity counts as
// outside the ESS — absorbs float noise from the monitoring bisection
// without masking real escapes (injected skews overshoot by orders of
// magnitude).
const essEps = 1e-9

// Policy configures the budget watchdog.
type Policy struct {
	// Slack is the tolerated overshoot fraction above the assigned budget
	// before the watchdog aborts: the enforcement ceiling is
	// budget·(1+Slack). It plays the same role as the paper's λ cost-model
	// slack — an explicit, bounded allowance rather than silent trust — and
	// enters the effective guarantee the same way. Negative values are
	// treated as 0 (abort at exactly the budget).
	Slack float64
	// Disabled turns the watchdog and the ESS-escape check off entirely,
	// restoring the unguarded pre-guard behaviour.
	Disabled bool
}

// escapeError is the terminal error returned when a learned selectivity
// leaves the ESS. It implements the Terminal method engine.Classify probes
// for, so the resilience layer never retries it and the session layer can
// detect it with IsEscape without the engine package importing guard.
type escapeError struct {
	dim     int
	learned float64
}

func (e *escapeError) Error() string {
	return fmt.Sprintf("guard: learned selectivity %g on dim %d escapes the ESS", e.learned, e.dim)
}

// Terminal marks the error as never-retryable for engine.Classify.
func (e *escapeError) Terminal() bool { return true }

// IsEscape reports whether the error records an ESS escape detected by the
// watchdog.
func IsEscape(err error) bool {
	var ee *escapeError
	return errors.As(err, &ee)
}

// Watchdog wraps a ContextExecutor with ledger enforcement: every budgeted
// call runs under a cost ceiling of budget·(1+Slack), overruns hard-abort
// with engine.ErrBudgetAborted, and spill-mode learned selectivities are
// validated against the ESS. Aborts and escapes are recorded only as
// budget_abort and ess_escape events on the context's recorder. It
// implements engine.ContextExecutor, so it slots between the discovery
// runners and the retry layer transparently.
type Watchdog struct {
	// Exec is the wrapped substrate.
	Exec engine.ContextExecutor
	// Policy is the enforcement configuration.
	Policy Policy
}

// New wraps the executor with the given policy.
func New(e engine.ContextExecutor, p Policy) *Watchdog {
	return &Watchdog{Exec: e, Policy: p}
}

// ceiling returns the enforcement ceiling for the budget, and whether the
// call is guarded at all: unbudgeted (+Inf) executions — the Native
// baseline, the degradation fallback — have no ledger to enforce.
func (w *Watchdog) ceiling(budget float64) (float64, bool) {
	if w.Policy.Disabled || math.IsInf(budget, 1) || budget <= 0 {
		return 0, false
	}
	slack := w.Policy.Slack
	if slack < 0 {
		slack = 0
	}
	return budget * (1 + slack), true
}

// recordAbort emits the budget_abort event.
func recordAbort(ctx context.Context, dim int, budget, spent float64, mode string) {
	telemetry.From(ctx).Record(telemetry.Event{
		Kind: telemetry.BudgetAbort, Dim: dim, Budget: budget, Spent: spent, Mode: mode,
	})
}

// inESS reports whether a fully- or partially-learned selectivity is a value
// the ESS can contain. Partial learns (monitoring lower bounds) are ≤ the
// true value, so the same axioms apply.
func inESS(learned float64) bool {
	return !math.IsNaN(learned) && !math.IsInf(learned, 0) &&
		learned >= 0 && learned <= 1+essEps
}

// ExecuteCtx runs the plan under budget with the watchdog ceiling armed.
func (w *Watchdog) ExecuteCtx(ctx context.Context, p *plan.Plan, budget float64) (engine.Result, error) {
	ceil, guarded := w.ceiling(budget)
	if !guarded {
		return w.Exec.ExecuteCtx(ctx, p, budget)
	}
	res, err := w.Exec.ExecuteCtx(engine.WithCostCeiling(ctx, ceil), p, budget)
	if err == nil && res.Spent > ceil {
		// The substrate ignored the ceiling (a plain executor without
		// cooperative cancellation): clamp the charge post-hoc and convert
		// the overrun into the same terminal abort.
		res = engine.Result{Completed: false, Spent: ceil}
		err = fmt.Errorf("guard: charge exceeded ceiling %.4g (budget %.4g): %w",
			ceil, budget, engine.ErrBudgetAborted)
	}
	if engine.IsBudgetAbort(err) {
		recordAbort(ctx, -1, budget, res.Spent, "exec")
	}
	return res, err
}

// ExecuteSpillCtx runs the spill-mode execution with the ceiling armed and
// validates the learned selectivity against the ESS.
func (w *Watchdog) ExecuteSpillCtx(ctx context.Context, p *plan.Plan, dim int, budget float64) (engine.SpillResult, bool, error) {
	if w.Policy.Disabled {
		return w.Exec.ExecuteSpillCtx(ctx, p, dim, budget)
	}
	ceil, guarded := w.ceiling(budget)
	execCtx := ctx
	if guarded {
		execCtx = engine.WithCostCeiling(ctx, ceil)
	}
	res, ok, err := w.Exec.ExecuteSpillCtx(execCtx, p, dim, budget)
	if err == nil && ok && guarded && res.Spent > ceil {
		res.Completed = false
		res.Spent = ceil
		err = fmt.Errorf("guard: spill charge exceeded ceiling %.4g (budget %.4g): %w",
			ceil, budget, engine.ErrBudgetAborted)
	}
	aborted := engine.IsBudgetAbort(err)
	if aborted {
		recordAbort(ctx, dim, budget, res.Spent, "spill")
	}
	// Validate the observation whenever monitoring produced one — aborted
	// spills included: their partial lower bound still feeds checkpoint state
	// and Lemma 3.1 pruning, so a corrupted value must escape, not linger.
	// The escape outranks the abort (both are terminal; only the escape
	// reroutes the run).
	if (err == nil || aborted) && ok && !inESS(res.Learned) {
		telemetry.From(ctx).Record(telemetry.Event{
			Kind: telemetry.ESSEscape, Dim: dim, Budget: budget, Spent: res.Spent,
			Learned: res.Learned,
		})
		return res, ok, &escapeError{dim: dim, learned: res.Learned}
	}
	return res, ok, err
}

// Execute implements the plain Executor interface by delegating through the
// guarded path with a background context; an abort surfaces as the clamped,
// incomplete result.
func (w *Watchdog) Execute(p *plan.Plan, budget float64) engine.Result {
	res, _ := w.ExecuteCtx(context.Background(), p, budget)
	return res
}

// ExecuteSpill implements the plain Executor interface.
func (w *Watchdog) ExecuteSpill(p *plan.Plan, dim int, budget float64) (engine.SpillResult, bool) {
	res, ok, _ := w.ExecuteSpillCtx(context.Background(), p, dim, budget)
	return res, ok
}

var _ engine.ContextExecutor = (*Watchdog)(nil)
