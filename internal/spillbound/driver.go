package spillbound

import (
	"context"
	"math"

	"repro/internal/bouquet"
	"repro/internal/engine"
	"repro/internal/ess"
	"repro/internal/plan"
	"repro/internal/runstate"
	"repro/internal/telemetry"
)

// Spill is one spill-mode execution a Planner schedules on a contour.
type Spill struct {
	// PlanID is the executed plan's POSP index.
	PlanID int
	// Dim is the ESS dimension spilled on.
	Dim int
	// Budget is the execution's cost budget.
	Budget float64
	// Penalty is AlignedBound's Cost(P,q)/Cost(Pq,q) for the (replacement)
	// plan, 1 for a natively aligned one, zero for SpillBound; it is
	// carried onto the SpillExec event.
	Penalty float64
	// Native reports an AlignedBound spill whose alignment is native
	// rather than induced.
	Native bool
}

// Contour is one contour iteration as a Planner sees it. It holds only what
// the sub-ESS and the budget determine — no contour index, no truth — so a
// plan memoized for one run serves every run that reaches the same contour.
type Contour struct {
	// Cost is the contour budget CC_i.
	Cost float64
	// Cells are the contour's cells in the current sub-ESS (never empty).
	Cells []int
	// Free are the unlearnt dimensions, ascending (at least two).
	Free []int
	// Learned holds the learnt epps by join ID (plan.SpillTarget's keys);
	// planners must not modify it.
	Learned map[int]bool
}

// Plan is a planner's choice on one contour.
type Plan struct {
	// Spills are the contour's spill executions, in order.
	Spills []Spill
	// Penalty is the choice's total penalty: AlignedBound's partition
	// penalty π, zero for SpillBound.
	Penalty float64
}

// Planner chooses one contour's spill executions. Drive runs them until
// one completes — its dimension is learnt and the same contour is planned
// again with the smaller free set — or all have run, and discovery moves to
// the next contour (quantum progress, Lemma 4.3). Plan must be a pure
// function of its Contour: Drive memoizes its result in the Space's
// contour memo under Slot and calls Plan only on a miss.
type Planner struct {
	Slot ess.PlanSlot
	Plan func(c Contour) Plan
}

// Drive runs contour-wise discovery (Algorithms 1 and 2) against the
// executor's hidden true location, taking each contour's spills from
// planner through the Space's contour memo. It owns everything the two
// algorithms share: the resume restore, contour checkpoints, repeat
// labelling, budget-abort handling, half-space pruning (Lemma 3.1), the
// terminal 1-D PlanBouquet phase and the max-corner fallback. Every
// execution and prune is recorded on the context's recorder, the run's
// only ledger. The context is checked at every contour iteration and spill
// boundary; on abort the partial outcome is returned with the error.
func Drive(ctx context.Context, s *ess.Space, ratio float64, resume *runstate.Discovery, planner Planner, e engine.ContextExecutor) (Outcome, error) {
	rec := telemetry.From(ctx)
	costs := s.ContourCosts(ratio)
	learned := make(map[int]bool) // by join ID (plan.SpillTarget keys)
	sub := s.Full()
	var out Outcome
	learn := func(dim int, sel float64) {
		learned[s.Query.EPPs[dim]] = true
		sub = sub.Fix(dim, s.Grid.CeilIndex(dim, sel))
	}

	start := 0
	if resume != nil {
		// Restore the checkpointed monotone state: the contour about to be
		// explored and every fully learnt selectivity with its half-space
		// prune. Discovery from here on is identical to the uninterrupted
		// run's tail — the state is monotone, so the snapshot is always a
		// valid (merely conservative) restart point.
		start = min(resume.Contour, len(costs)-1)
		for dim, sel := range resume.Learned {
			learn(dim, sel)
		}
	}

	// spilled is the bitmask of dimensions already spilled on contour
	// spilledOn, to label repeat executions.
	spilled, spilledOn := 0, -1
	for i := start; i < len(costs); {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		free := sub.FreeDims()
		if len(free) == 1 {
			// Terminal 1-D phase: plain PlanBouquet over the remaining
			// dimension, starting from the current contour, in regular
			// (non-spill) mode — spilling in 1-D weakens the bound.
			tail, err := bouquet.RunSubspaceContext(ctx, s, s, e, costs, i, sub, 1)
			out.TotalCost += tail.TotalCost
			out.Completed = tail.Completed
			return out, err
		}

		// Contour-iteration boundary: persist the monotone discovery state
		// (and give the crash-point injector its window). Re-explorations of
		// the same contour after a prune checkpoint again — the learnt set
		// grew, so the restart point improved.
		if err := runstate.Checkpoint(ctx, i); err != nil {
			return out, err
		}
		if i != spilledOn {
			spilled, spilledOn = 0, i
		}
		rec.EnterContour(i + 1)

		ct := sub.CachedContour(costs[i])
		if len(ct.Cells) == 0 {
			i++
			continue
		}
		plan := ct.Plan(planner.Slot, func() any {
			return planner.Plan(Contour{Cost: costs[i], Cells: ct.Cells, Free: free, Learned: learned})
		}).(Plan)
		out.MaxPartitionPenalty = max(out.MaxPartitionPenalty, plan.Penalty)
		progressed := false
		for _, sp := range plan.Spills {
			res, ok, err := e.ExecuteSpillCtx(ctx, s.Plans()[sp.PlanID], sp.Dim, sp.Budget)
			if err != nil && !engine.IsBudgetAbort(err) {
				return out, err
			}
			if !ok {
				continue
			}
			// A budget abort is an incomplete spill, not a failed
			// run: the clamped charge and the partial monitoring bound are
			// recorded below and discovery moves on (next spill, then next
			// contour per Lemma 4.3).
			rec.Record(telemetry.Event{
				Kind: telemetry.SpillExec, Contour: i + 1, Dim: sp.Dim, PlanID: sp.PlanID,
				Budget: sp.Budget, Spent: res.Spent, Completed: res.Completed,
				Learned: res.Learned, Penalty: sp.Penalty, Repeat: spilled&(1<<sp.Dim) != 0,
			})
			spilled |= 1 << sp.Dim
			out.TotalCost += res.Spent
			if res.Completed {
				// Selectivity fully learnt: restrict the effective search
				// space and re-explore the same contour with the reduced
				// EPP set (Algorithm 1's break).
				learn(sp.Dim, res.Learned)
				rec.Record(telemetry.Event{
					Kind: telemetry.HalfSpacePrune, Contour: i + 1, Dim: sp.Dim, Learned: res.Learned,
				})
				progressed = true
				break
			}
		}
		if !progressed {
			i++ // quantum progress: jump to the next contour (Lemma 4.3)
		}
	}

	// Unreachable under PCM (the final contour's spills complete, reducing
	// to the 1-D phase); kept as a defensive fallback mirroring
	// bouquet.RunSubspaceContext's guard.
	ci := sub.MaxCorner()
	res, err := e.ExecuteCtx(ctx, s.PlanAt(ci), math.Inf(1))
	if err != nil {
		return out, err
	}
	rec.Record(telemetry.Event{
		Kind: telemetry.PlanExec, Contour: len(costs), Dim: -1, PlanID: s.PlanIDAt(ci),
		Budget: res.Spent, Spent: res.Spent, Completed: true,
	})
	out.TotalCost += res.Spent
	out.Completed = true
	return out, nil
}

// SpillDim returns the ESS dimension plan p spills on under the learned
// set (join IDs): the dimension of its first unlearnt epp in pipeline
// order (plan.SpillTarget). ok is false when p spills on no epp.
func SpillDim(s *ess.Space, p *plan.Plan, learned map[int]bool) (dim int, ok bool) {
	tgt, has := p.SpillTarget(s.Query.EPPs, learned)
	if !has {
		return -1, false
	}
	return s.Query.IsEPP(tgt.JoinID)
}

// ContourScan is one pass over a contour's cells under a learned set.
type ContourScan struct {
	// MaxCoord[d][j] is the maximum j-coordinate over the cells whose plan
	// spills on dimension d, or -1 when no cell spills on d.
	MaxCoord [][]int
	// JMaxCell[j] is the paper's q^j_max: the first cell (in cells order)
	// attaining MaxCoord[j][j], or -1 when no cell spills on j.
	JMaxCell []int
}

// ScanContour computes the ContourScan of cells under learned.
func ScanContour(s *ess.Space, cells []int, learned map[int]bool) ContourScan {
	g := s.Grid
	sc := ContourScan{MaxCoord: make([][]int, g.D), JMaxCell: make([]int, g.D)}
	flat := make([]int, g.D*g.D)
	for i := range flat {
		flat[i] = -1
	}
	for d := range sc.MaxCoord {
		sc.MaxCoord[d] = flat[d*g.D : (d+1)*g.D]
		sc.JMaxCell[d] = -1
	}
	for _, ci := range cells {
		d, ok := SpillDim(s, s.PlanAt(ci), learned)
		if !ok {
			continue
		}
		for j, m := range sc.MaxCoord[d] {
			if c := g.Coord(ci, j); c > m {
				sc.MaxCoord[d][j] = c
				if d == j {
					sc.JMaxCell[d] = ci
				}
			}
		}
	}
	return sc
}
