package bouquet

import (
	"context"
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/ess"
	"repro/internal/runstate"
	"repro/internal/telemetry"
)

// Step records one budgeted plan execution of the bouquet protocol.
type Step struct {
	// Contour is the contour index the plan was drawn from.
	Contour int
	// PlanID is the executed plan's POSP index.
	PlanID int
	// Budget is the cost limit assigned.
	Budget float64
	// Spent is the cost charged (full plan cost when completed, the budget
	// otherwise).
	Spent float64
	// Completed reports whether the plan finished within its budget.
	Completed bool
}

// Outcome is the result of a bouquet-style discovery run.
type Outcome struct {
	// Steps lists every budgeted execution in order.
	Steps []Step
	// TotalCost is the summed Spent of all steps.
	TotalCost float64
	// Completed reports whether some execution produced the full result.
	Completed bool
	// FinalPlanID is the plan that completed the query.
	FinalPlanID int
}

// Run executes the PlanBouquet protocol (paper Sec 1.1): starting at the
// cheapest contour, sequentially run each contour plan under the contour's
// budget (inflated by the diagram's reduction threshold), jumping to the
// next contour when all fail. The engine carries the hidden true location.
func Run(d *Diagram, e engine.Executor, ratio float64) Outcome {
	out, _ := RunSubspaceContext(context.Background(), d.Space, d, e, d.Space.ContourCosts(ratio), 0, d.Space.Full(), 1+d.Lambda)
	return out
}

// RunSubspaceContext is the budgeted execution loop over an arbitrary
// subspace and starting contour, used by Run, by the planbouquet strategy,
// and as the terminal 1-D phase of SpillBound and AlignedBound (paper
// Sec 4.1: "we simply invoke the standard PlanBouquet with only the
// [remaining] epp, starting from the contour currently being explored").
// Budgets are cc*inflate. The context is checked at every contour iteration
// and execution boundary; on abort (cancellation, deadline, or an execution
// failure that survived the substrate's retry policy) it returns the steps
// completed so far together with the error, and the caller decides whether
// to degrade or propagate. Fault plans attached to the context surface the
// same way (see internal/faults).
func RunSubspaceContext(ctx context.Context, s *ess.Space, a Assignment, e engine.Executor, costs []float64, start int, sub ess.Subspace, inflate float64) (Outcome, error) {
	ce := engine.AsContextExecutor(e)
	rec := telemetry.From(ctx)
	var out Outcome
	for i := start; i < len(costs); i++ {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		// Contour boundary: persist the durable restart point (and let the
		// crash-point injector fire). A crash inside this contour redoes at
		// most this contour's executions on resume.
		if err := runstate.Checkpoint(ctx, i); err != nil {
			return out, err
		}
		rec.EnterContour(i + 1)
		cells := sub.ContourCellsCached(costs[i])
		for _, id := range distinctPlans(a, cells) {
			budget := costs[i] * inflate
			res, err := ce.ExecuteCtx(ctx, s.Plans()[id], budget)
			if err != nil && !engine.IsBudgetAbort(err) {
				return out, err
			}
			// A watchdog budget abort is a failed step, not a failed run: the
			// clamped charge stands in the ledger and discovery moves to the
			// next plan, then the next contour — the shape the MSO analysis
			// already accounts for.
			rec.Record(telemetry.Event{
				Kind: telemetry.PlanExec, Contour: i + 1, Dim: -1, PlanID: id,
				Budget: budget, Spent: res.Spent, Completed: res.Completed,
			})
			out.Steps = append(out.Steps, Step{
				Contour: i, PlanID: id, Budget: budget,
				Spent: res.Spent, Completed: res.Completed,
			})
			out.TotalCost += res.Spent
			runstate.Spend(ctx, res.Spent)
			if res.Completed {
				out.Completed = true
				out.FinalPlanID = id
				return out, nil
			}
		}
	}
	// Unreachable under PCM: the final contour consists solely of the
	// subspace terminus, whose plan's cost at any dominated true location
	// is within the final budget. Guard against numeric edge cases by
	// running that plan unbudgeted.
	ci := sub.MaxCorner()
	p := s.Plans()[a.PlanIDAt(ci)]
	res, err := ce.ExecuteCtx(ctx, p, math.Inf(1))
	if err != nil {
		return out, err
	}
	rec.Record(telemetry.Event{
		Kind: telemetry.PlanExec, Contour: len(costs), Dim: -1, PlanID: a.PlanIDAt(ci),
		Budget: res.Spent, Spent: res.Spent, Completed: true,
	})
	out.Steps = append(out.Steps, Step{
		Contour: len(costs) - 1, PlanID: a.PlanIDAt(ci), Budget: res.Spent, Spent: res.Spent, Completed: true,
	})
	out.TotalCost += res.Spent
	runstate.Spend(ctx, res.Spent)
	out.Completed = true
	out.FinalPlanID = a.PlanIDAt(ci)
	return out, nil
}

// distinctPlans returns the distinct plan IDs assigned to the cells, in
// first-appearance order over ascending cell index (a deterministic
// sequential order for the contour's plans).
func distinctPlans(a Assignment, cells []int) []int {
	seen := map[int]bool{}
	var out []int
	for _, ci := range cells {
		id := a.PlanIDAt(ci)
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}

// String renders a step compactly, e.g. "IC3: P7|2048 ✗".
func (st Step) String() string {
	mark := "✗"
	if st.Completed {
		mark = "✓"
	}
	return fmt.Sprintf("IC%d: P%d|%.4g %s", st.Contour+1, st.PlanID, st.Budget, mark)
}
