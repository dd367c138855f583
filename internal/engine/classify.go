// Error classification. The paper's ledger analysis (Sec 3, MSO ≤ 4(1+λ)ρ)
// assumes every budgeted execution is forcibly terminated at its contour
// budget; the engine enforces that at the point where it charges cost, and
// reports the two ways an execution can break the paper's premises as
// typed errors: ErrBudgetAborted (the charge would have passed the budget)
// and an ESS escape (run-time monitoring learned a selectivity the space
// cannot contain).
//
// Terminal answers the retry layer's only question: is an error worth
// re-attempting? Budget aborts, ESS escapes, injected checkpoint crashes and
// context cancellation are terminal — re-running the step cannot change the
// outcome and would double-charge the ledger — while everything else
// (injected failures, panics recovered into errors, transient substrate
// trouble) is transient and rides the backoff schedule.

package engine

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/faults"
)

// ErrBudgetAborted marks an execution the engine cut off at its budget: an
// overrunning operator's charge would have passed the assigned budget, so
// the charge is clamped to the budget and the partial result discarded. The
// discovery loops treat the execution as a failed (incomplete) step and
// continue at the next plan/contour. Terminal: never retried.
var ErrBudgetAborted = errors.New("engine: execution aborted at budget ceiling")

// IsBudgetAbort reports whether the error is a budget abort.
func IsBudgetAbort(err error) bool { return errors.Is(err, ErrBudgetAborted) }

// essEps is the tolerance above 1 before a learned selectivity counts as
// outside the ESS — absorbs float noise from the monitoring bisection
// without masking real escapes (injected skews overshoot by orders of
// magnitude).
const essEps = 1e-9

// inESS reports whether a fully- or partially-learned selectivity is a value
// the ESS can contain. Partial learns (monitoring lower bounds) are ≤ the
// true value, so the same axioms apply.
func inESS(learned float64) bool {
	return !math.IsNaN(learned) && !math.IsInf(learned, 0) &&
		learned >= 0 && learned <= 1+essEps
}

// escapeError is the terminal error returned when a learned selectivity
// leaves the ESS: the discovery index would leave the enumerated space, so
// the session layer abandons discovery for the safe path (the max-corner
// terminal plan, which Lemma 3.2 guarantees completes at any ESS location).
type escapeError struct {
	dim     int
	learned float64
}

func (e *escapeError) Error() string {
	return fmt.Sprintf("engine: learned selectivity %g on dim %d escapes the ESS", e.learned, e.dim)
}

// IsEscape reports whether the error records an ESS escape.
func IsEscape(err error) bool {
	var ee *escapeError
	return errors.As(err, &ee)
}

// Terminal reports whether an execution-step error must not be retried:
// context cancellation and deadline expiry, budget aborts, ESS escapes and
// injected checkpoint crashes (faults.ErrCrashed, matched by faults.IsCrash) are
// terminal — retrying cannot succeed and may double-charge the budget
// ledger; everything else is transient.
func Terminal(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	return errors.Is(err, ErrBudgetAborted) || IsEscape(err) || faults.IsCrash(err)
}
