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
	"fmt"
	"strings"

	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/ess"
	"repro/internal/runstate"
)

// Guarantee returns SpillBound's structural MSO bound D²+3D (Theorem 4.5),
// computable by query inspection alone.
func Guarantee(d int) float64 { return float64(d*d + 3*d) }

// Execution records one budgeted execution of a contour-wise discovery run
// (SpillBound or AlignedBound): a spill-mode execution on some dimension,
// or a regular execution during the terminal 1-D PlanBouquet phase.
type Execution struct {
	// Contour is the contour index explored.
	Contour int
	// Dim is the ESS dimension spilled on, or -1 for a regular execution.
	Dim int
	// PlanID is the executed plan's POSP index.
	PlanID int
	// CellLoc is the contour location whose plan was chosen.
	CellLoc cost.Location
	// Budget and Spent are the assigned and charged costs.
	Budget, Spent float64
	// Completed reports full completion (of the subtree for spills, of the
	// query for regular executions).
	Completed bool
	// Learned is the selectivity information gained on Dim (exact value or
	// monitoring lower bound); zero for regular executions.
	Learned float64
	// Repeat marks a repeat execution: the dimension had already been
	// spilled on this contour, and its P^j_max changed after another epp
	// was fully learnt (paper Sec 4.2).
	Repeat bool
	// Penalty is AlignedBound's Cost(P,q)/Cost(Pq,q) for the executed
	// (replacement) plan, 1 for natively aligned executions; zero for
	// SpillBound and for regular executions.
	Penalty float64
	// Native reports an AlignedBound execution whose alignment was native
	// rather than induced.
	Native bool
}

// String renders the execution in the paper's trace notation (lowercase p
// for spill-mode).
func (x Execution) String() string {
	if x.Dim < 0 {
		mark := "✗"
		if x.Completed {
			mark = "✓"
		}
		return fmt.Sprintf("IC%d: P%d|%.4g %s", x.Contour+1, x.PlanID, x.Budget, mark)
	}
	tag := ""
	if x.Repeat {
		tag = " (repeat)"
	}
	return fmt.Sprintf("IC%d: p%d|%.4g spill dim %d → %.3g%s",
		x.Contour+1, x.PlanID, x.Budget, x.Dim, x.Learned, tag)
}

// Outcome is a full discovery run.
type Outcome struct {
	// Executions lists every budgeted execution in order.
	Executions []Execution
	// TotalCost is the summed charged cost — the numerator of Eq. (3).
	TotalCost float64
	// Completed reports whether the query finished (always true under PCM).
	Completed bool
	// LearnedSel holds the exact selectivities learnt by completed spills
	// (or restored on resume), indexed by dimension; the dimension resolved
	// by the terminal 1-D phase has no entry.
	LearnedSel map[int]float64
	// MaxPartitionPenalty is the largest Plan.Penalty over the contours
	// planned: AlignedBound's per-partition total penalty π* (paper Table
	// 4), zero under SpillBound.
	MaxPartitionPenalty float64
}

// Trace renders the execution list, one line each.
func (o Outcome) Trace() string {
	var b strings.Builder
	for _, x := range o.Executions {
		b.WriteString(x.String())
		b.WriteByte('\n')
	}
	return b.String()
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
	// restored before the first execution. The outcome then reports only
	// the resumed incarnation's new executions and spend; the caller owns
	// the carried-over budget ledger (Resume.Spent).
	Resume *runstate.Discovery
}

// NewRunner returns a Runner with the paper's default cost-doubling
// contours.
func NewRunner(s *ess.Space) *Runner {
	return &Runner{Space: s, Ratio: ess.CostDoublingRatio}
}

// Run performs SpillBound discovery against the engine's hidden true
// location and returns the full outcome (Algorithm 1).
func (r *Runner) Run(e engine.Executor) Outcome {
	out, _ := r.RunContext(context.Background(), e)
	return out
}

// RunContext is Run with cancellation and error-aware execution (see
// Drive): on abort the partial outcome is returned with the error so the
// caller can degrade (fall back to the Native plan) or propagate the
// cancellation.
func (r *Runner) RunContext(ctx context.Context, e engine.Executor) (Outcome, error) {
	return Drive(ctx, r.Space, r.Ratio, r.Resume, maxCellPlanner(r.Space), e)
}

// maxCellPlanner is SpillBound's planner: for each free dimension j in
// order, P^j_max at q^j_max — among the contour cells whose optimal plan
// spills on j, the one with the maximum j-coordinate (paper Sec 3.2) —
// under the contour budget. Dimensions no contour plan spills on are
// skipped.
func maxCellPlanner(s *ess.Space) Planner {
	return Planner{Slot: ess.SpillBoundSlot, Plan: func(c Contour) Plan {
		jmax := ScanContour(s, c.Cells, c.Learned).JMaxCell
		spills := make([]Spill, 0, len(c.Free))
		for _, dim := range c.Free {
			if cell := jmax[dim]; cell >= 0 {
				spills = append(spills, Spill{
					PlanID: s.PlanIDAt(cell), Dim: dim, Cell: cell, Budget: c.Cost,
				})
			}
		}
		return Plan{Spills: spills}
	}}
}
