// Package spillbound implements the SpillBound algorithm (paper Sec 4),
// the core contribution: contour-wise selectivity discovery in which, on
// each contour and for each unlearned error-prone predicate e_j, the plan
// P^j_max offering the maximal guaranteed learning along dimension j is
// executed in spill-mode under the contour budget. Half-space pruning
// (Lemma 3.1) and contour-density-independent execution (Lemma 3.2/4.3)
// yield the platform-independent guarantee MSO <= D² + 3D (Theorem 4.5).
package spillbound

import (
	"context"

	"repro/internal/engine"
	"repro/internal/ess"
	"repro/internal/runstate"
)

// Guarantee returns SpillBound's structural MSO bound D²+3D (Theorem 4.5),
// computable by query inspection alone.
func Guarantee(d int) float64 { return float64(d*d + 3*d) }

// Outcome is what a discovery run returns beside its events. Every
// execution, learnt selectivity and half-space prune is recorded only on
// the context's telemetry.Recorder.
type Outcome struct {
	// TotalCost is the summed charged cost — the numerator of Eq. (3).
	TotalCost float64
	// Completed reports whether the query finished (always true under PCM).
	Completed bool
	// MaxPartitionPenalty is the largest Plan.Penalty over the contours
	// planned: AlignedBound's per-partition total penalty π* (paper Table
	// 4), zero under SpillBound.
	MaxPartitionPenalty float64
}

// Runner executes SpillBound over a prebuilt ESS.
type Runner struct {
	// Space is the explored ESS.
	Space *ess.Space
	// Ratio is the contour cost ratio (the paper's default doubling).
	Ratio float64
	// Resume, when non-nil, restarts the discovery from a checkpointed
	// state instead of from scratch: the contour index and the learnt
	// selectivities (and hence the pruned half-spaces, Lemma 3.1) are
	// restored before the first execution. The outcome and the recorded
	// events then cover only the resumed incarnation's new executions; the
	// caller owns the carried-over budget ledger (Resume.Spent).
	Resume *runstate.Discovery
}

// NewRunner returns a Runner with the paper's default cost-doubling
// contours.
func NewRunner(s *ess.Space) *Runner {
	return &Runner{Space: s, Ratio: ess.CostDoublingRatio}
}

// Run performs SpillBound discovery against the engine's hidden true
// location and returns the outcome (Algorithm 1).
func (r *Runner) Run(e engine.Executor) Outcome {
	out, _ := r.RunContext(context.Background(), engine.AsContextExecutor(e))
	return out
}

// RunContext is Run with cancellation, error-aware execution and the
// context's recorder (see Drive): on abort the partial outcome is returned
// with the error so the caller can degrade (fall back to the Native plan)
// or propagate the cancellation.
func (r *Runner) RunContext(ctx context.Context, e engine.ContextExecutor) (Outcome, error) {
	return Drive(ctx, r.Space, r.Ratio, r.Resume, maxCellPlanner(r.Space), e)
}

// maxCellPlanner is SpillBound's planner: for each free dimension j in
// order, P^j_max at q^j_max — among the contour cells whose optimal plan
// spills on j, the one with the maximum j-coordinate (paper Sec 3.2) —
// under the contour budget. Dimensions no contour plan spills on are
// skipped.
func maxCellPlanner(s *ess.Space) Planner {
	return Planner{Slot: ess.SpillBoundSlot, Plan: func(c Contour) Plan {
		jmax := ScanContour(s, c.Cells, c.Learnt).JMaxCell
		spills := make([]Spill, 0, len(c.Free))
		for _, dim := range c.Free {
			if cell := jmax[dim]; cell >= 0 {
				spills = append(spills, Spill{
					PlanID: s.PlanIDAt(cell), Dim: dim, Budget: c.Cost,
				})
			}
		}
		return Plan{Spills: spills}
	}}
}
