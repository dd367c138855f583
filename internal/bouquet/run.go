package bouquet

import (
	"context"
	"math"

	"repro/internal/engine"
	"repro/internal/ess"
	"repro/internal/runstate"
	"repro/internal/telemetry"
)

// Outcome is what a bouquet-style discovery run returns beside its events:
// every execution is recorded only on the context's telemetry.Recorder.
type Outcome struct {
	// TotalCost is the summed charged cost of all executions.
	TotalCost float64
	// Completed reports whether some execution produced the full result.
	Completed bool
}

// Run executes the PlanBouquet protocol (paper Sec 1.1): starting at the
// cheapest contour, sequentially run each contour plan under the contour's
// budget (inflated by the diagram's reduction threshold), jumping to the
// next contour when all fail. The engine carries the hidden true location.
func Run(d *Diagram, e engine.Executor, ratio float64) Outcome {
	out, _ := RunContext(context.Background(), d, engine.AsContextExecutor(e), d.Space.ContourCosts(ratio), 0)
	return out
}

// RunContext is PlanBouquet over the whole diagram from contour index
// start, the run of Run and of the planbouquet strategy: each contour's
// plans are the diagram's Schedule under costs, and budgets are
// cc·(1+Lambda). Errors and cancellation behave as in RunSubspaceContext.
func RunContext(ctx context.Context, d *Diagram, e engine.ContextExecutor, costs []float64, start int) (Outcome, error) {
	sched := d.Schedule(costs)
	return run(ctx, d.Space, d, e, costs, start, d.Space.Grid.Terminus(), 1+d.Lambda,
		func(i int) []int { return sched[i] })
}

// RunSubspaceContext is the budgeted execution loop over an arbitrary
// subspace and starting contour: the terminal 1-D phase of SpillBound and
// AlignedBound (paper Sec 4.1: "we simply invoke the standard PlanBouquet
// with only the [remaining] epp, starting from the contour currently being
// explored"). Each contour's plans are derived from its cells inside the
// subspace, in the order RunContext's schedule lists them.
func RunSubspaceContext(ctx context.Context, s *ess.Space, a Assignment, e engine.ContextExecutor, costs []float64, start int, sub ess.Subspace, inflate float64) (Outcome, error) {
	return run(ctx, s, a, e, costs, start, sub.MaxCorner(), inflate,
		func(i int) []int { return distinctPlans(a, sub.ContourCellsCached(costs[i])) })
}

// run is the one budgeted execution loop: from contour index start, every
// plan plansOn(i) lists runs under the budget costs[i]*inflate, until one
// completes. Every execution is recorded on the context's recorder. The
// context is checked at every contour iteration and execution boundary; on
// abort (cancellation, deadline, or an execution failure that survived the
// substrate's retry policy) it returns the cost charged so far together
// with the error, and the caller decides whether to degrade or propagate.
// Fault plans attached to the context surface the same way (see
// internal/faults). terminus is the cell of the unbudgeted fallback.
func run(ctx context.Context, s *ess.Space, a Assignment, e engine.ContextExecutor, costs []float64, start, terminus int, inflate float64, plansOn func(i int) []int) (Outcome, error) {
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
		for _, id := range plansOn(i) {
			budget := costs[i] * inflate
			res, err := e.ExecuteCtx(ctx, s.Plans()[id], budget)
			if err != nil && !engine.IsBudgetAbort(err) {
				return out, err
			}
			// A budget abort is a failed step, not a failed run: the
			// clamped charge stands in the ledger and discovery moves to the
			// next plan, then the next contour — the shape the MSO analysis
			// already accounts for.
			rec.Record(telemetry.Event{
				Kind: telemetry.PlanExec, Contour: i + 1, Dim: -1, PlanID: id,
				Budget: budget, Spent: res.Spent, Completed: res.Completed,
			})
			out.TotalCost += res.Spent
			if res.Completed {
				out.Completed = true
				return out, nil
			}
		}
	}
	// Unreachable under PCM: the final contour consists solely of the
	// subspace terminus, whose plan's cost at any dominated true location
	// is within the final budget. Guard against numeric edge cases by
	// running that plan unbudgeted.
	id := a.PlanIDAt(terminus)
	res, err := e.ExecuteCtx(ctx, s.Plans()[id], math.Inf(1))
	if err != nil {
		return out, err
	}
	rec.Record(telemetry.Event{
		Kind: telemetry.PlanExec, Contour: len(costs), Dim: -1, PlanID: id,
		Budget: res.Spent, Spent: res.Spent, Completed: true,
	})
	out.TotalCost += res.Spent
	out.Completed = true
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
