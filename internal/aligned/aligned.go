// Package aligned implements the AlignedBound algorithm (paper Sec 5),
// which bridges SpillBound's quadratic-to-linear MSO gap by exploiting —
// and, where absent, inducing at bounded cost penalty — the contour
// alignment and predicate set alignment (PSA) properties. It is a planner
// for SpillBound's discovery driver (spillbound.Drive): on every contour
// it selects the minimum-penalty partition cover of the remaining epps and
// schedules one spill-mode plan per part (its leader's replacement plan),
// achieving quantum progress with as few as one execution per contour, for
// an MSO guarantee in the platform-independent range [2D+2, D²+3D].
package aligned

import (
	"context"
	"math"
	"sync"

	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/ess"
	"repro/internal/runstate"
	"repro/internal/spillbound"
)

// GuaranteeLower returns the aligned-case MSO bound 2D+2 (Theorem 5.1).
func GuaranteeLower(d int) float64 { return float64(2*d + 2) }

// GuaranteeUpper returns AlignedBound's worst-case bound D²+3D, retained
// from SpillBound.
func GuaranteeUpper(d int) float64 { return spillbound.Guarantee(d) }

// Runner executes AlignedBound over a prebuilt ESS.
type Runner struct {
	// Space is the explored ESS.
	Space *ess.Space
	// Ratio is the contour cost ratio (paper default: doubling).
	Ratio float64
	// Resume, when non-nil, restarts the discovery from a checkpointed
	// state: the contour index and learnt selectivities (with their
	// half-space prunes, Lemma 3.1) are restored before the first
	// execution, mirroring spillbound.Runner.Resume. The outcome reports
	// only the resumed incarnation's new spend; the caller owns the
	// carried-over ledger (Resume.Spent).
	Resume *runstate.Discovery
}

// NewRunner returns a Runner with the default doubling contours.
func NewRunner(s *ess.Space) *Runner {
	return &Runner{Space: s, Ratio: ess.CostDoublingRatio}
}

// Outcome is a full AlignedBound run: the shared discovery outcome, whose
// MaxPartitionPenalty is the largest per-partition total penalty π*
// encountered across explored contours (paper Table 4).
type Outcome = spillbound.Outcome

// partExec is the single spill-mode execution chosen for one part of a
// partition cover: the leader dimension's (possibly replacement) plan, the
// location it substitutes at, and the penalty relative to that location's
// optimal cost.
type partExec struct {
	spillbound.Spill
	empty bool // no contour cell spills on any dim of the part
}

// contourState caches the per-contour analysis AlignedBound needs: the
// contour cells, their per-spill-dimension extremes and the pool of plans
// per spill dimension.
type contourState struct {
	s     *ess.Space
	cells []int
	scan  spillbound.ContourScan
	poolSet
	memo    map[[2]int]memo // (part mask, leader) -> part penalty
	indMemo map[[2]int]memo // (leader, coord) -> induced replacement
	costed  int             // (cell, plan) pairs the induced replacements costed
}

type memo struct {
	exec     partExec
	feasible bool
}

// newContourState analyzes one contour under the current learned set,
// precomputing the per-dimension extreme coordinates that make partition
// penalty queries O(D) instead of O(|contour|).
func newContourState(s *ess.Space, cells []int, learned map[int]bool) *contourState {
	return &contourState{
		s: s, cells: cells,
		scan:    spillbound.ScanContour(s, cells, learned),
		poolSet: table(s).learntPools(s, learned),
		memo:    map[[2]int]memo{},
		indMemo: map[[2]int]memo{},
	}
}

// poolSet is the spill pools of one learnt set, with the schedule
// (ess.Space.PlanSchedule) that costs each.
type poolSet struct {
	pools map[int][]int   // dim -> POSP plan IDs spilling on dim
	slots map[int][]int32 // dim -> the schedule of pools[dim]
}

// poolTable is AlignedBound's planner state on a Space: the spill pools of
// each learnt set, indexed by the bitmask of learnt dimensions and computed
// on first use. There are at most 2^D learnt sets, against one planned
// contour per (sub-ESS, budget).
type poolTable struct {
	mu     sync.Mutex
	byMask []poolSet
	costed int // (cell, plan) pairs costed over every contour planned (aligned.pool_costs)
}

// table returns the Space's pool table.
func table(s *ess.Space) *poolTable {
	return s.PlannerState(ess.AlignedBoundSlot, func() any {
		return &poolTable{byMask: make([]poolSet, 1<<uint(s.Grid.D))}
	}).(*poolTable)
}

// learntPools returns the spill pools of the learned set and their
// schedules through the pool table. A missing set is computed outside the
// lock, so planners on the Space's other learnt sets do not wait for it,
// and published under it; the set is a pure function of the mask, so
// when two planners compute one, the first stored wins.
func (t *poolTable) learntPools(s *ess.Space, learned map[int]bool) poolSet {
	mask := 0
	for d, id := range s.Query.EPPs {
		if learned[id] {
			mask |= 1 << uint(d)
		}
	}
	t.mu.Lock()
	ps := t.byMask[mask]
	t.mu.Unlock()
	if ps.pools != nil {
		return ps
	}
	ps.pools, ps.slots = spillPools(s, learned), map[int][]int32{}
	for d, ids := range ps.pools {
		ps.slots[d], _ = s.PlanSchedule(ids)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.byMask[mask].pools == nil {
		t.byMask[mask] = ps
	}
	return t.byMask[mask]
}

// spillPools groups the POSP plan IDs by the dimension each spills on
// under the learned set.
func spillPools(s *ess.Space, learned map[int]bool) map[int][]int {
	pools := map[int][]int{}
	for id, p := range s.Plans() {
		if d, ok := spillbound.SpillDim(s, p, learned); ok {
			pools[d] = append(pools[d], id)
		}
	}
	return pools
}

// partPenalty computes the minimum-penalty way to make part T (a bitmask
// over ESS dimensions) satisfy predicate set alignment with the given
// leader dimension (paper Sec 5.2.1), returning the execution that enforces
// it. Parts none of whose dimensions are spilled on the contour need no
// execution and cost nothing.
func (st *contourState) partPenalty(mask int, leader int) (partExec, bool) {
	key := [2]int{mask, leader}
	if m, ok := st.memo[key]; ok {
		return m.exec, m.feasible
	}
	exec, feasible := st.computePartPenalty(mask, leader)
	st.memo[key] = memo{exec, feasible}
	return exec, feasible
}

func (st *contourState) computePartPenalty(mask int, leader int) (partExec, bool) {
	s := st.s

	// Members: contour cells whose optimal plan spills on a dim in T.
	// Their extreme leader-coordinate is the max over the part's dims of
	// the precomputed per-spill-dim extremes.
	memberMax := -1
	for d := 0; d < s.Grid.D; d++ {
		if mask&(1<<uint(d)) == 0 {
			continue
		}
		if c := st.scan.MaxCoord[d][leader]; c > memberMax {
			memberMax = c
		}
	}
	if memberMax < 0 {
		return partExec{Spill: spillbound.Spill{Dim: leader}, empty: true}, true
	}

	// q^j_max: the max-leader-coordinate cell among cells spilling on the
	// leader itself (Sec 3.2). Native PSA holds when it attains memberMax.
	if ci := st.scan.JMaxCell[leader]; ci >= 0 && st.scan.MaxCoord[leader][leader] >= memberMax {
		return partExec{Spill: spillbound.Spill{
			PlanID: s.PlanIDAt(ci), Dim: leader,
			Budget: s.CostAt(ci), Penalty: 1, Native: true,
		}}, true
	}
	return st.inducedReplacement(leader, memberMax)
}

// inducedReplacement finds the minimum-penalty (plan, location) pair that
// induces PSA with the given leader at the given extreme coordinate:
// S = contour cells whose leader coordinate equals coord, candidates are
// the POSP plans spilling on the leader (Sec 5.2.1), costed through a cost
// table borrowed from the Space by the pool's schedule, cost.Lanes cells
// at a time, so subtrees shared by the pool are costed once per cell.
// Memoized per (leader, coord) — the coordinate can only be one of D
// precomputed extremes.
func (st *contourState) inducedReplacement(leader, coord int) (partExec, bool) {
	key := [2]int{leader, coord}
	if m, ok := st.indMemo[key]; ok {
		return m.exec, m.feasible
	}
	s := st.s
	pool, slots := st.pools[leader], st.slots[leader]
	costs := s.BorrowCosts()
	defer s.ReturnCosts(costs)
	best := spillbound.Spill{Dim: leader, Penalty: math.Inf(1)}
	var cells []int // S
	for _, ci := range st.cells {
		if s.Grid.Coord(ci, leader) == coord {
			cells = append(cells, ci)
		}
	}
	var cut [cost.Lanes]int
	for j := range cut {
		cut[j] = len(slots)
	}
	// One lane per cell, the cells scanned in order: the strict comparison
	// keeps the first (cell, plan) of least penalty.
	for len(cells) > 0 {
		unit := cells[:min(cost.Lanes, len(cells))]
		cells = cells[len(unit):]
		costs.Eval(unit, slots, cut[:len(unit)])
		for j, ci := range unit {
			st.costed += len(pool)
			opt := s.CostAt(ci)
			for _, id := range pool {
				c := costs.Cost(j, id)
				if pen := c / opt; pen < best.Penalty {
					best = spillbound.Spill{
						PlanID: id, Dim: leader,
						Budget: c, Penalty: pen,
					}
				}
			}
		}
	}
	pe, feasible := partExec{Spill: best}, !math.IsInf(best.Penalty, 1)
	if !feasible {
		pe = partExec{}
	}
	st.indMemo[key] = memo{pe, feasible}
	return pe, feasible
}

// bestPartition enumerates the set partitions of the free dimensions
// (Sec 5.2.2 justifies restricting to partition covers) and returns the
// minimum total-penalty cover with each part's chosen leader execution, or
// nil when no partition is feasible. That cannot happen: the all-singletons
// partition is always feasible (a part {j} is natively aligned by
// construction); the driver would then move on to the next contour.
func (st *contourState) bestPartition(free []int) ([]partExec, float64) {
	bestPenalty := math.Inf(1)
	var best []partExec

	parts := make([][]int, 0, len(free))
	var rec func(k int)
	rec = func(k int) {
		if k == len(free) {
			var total float64
			execs := make([]partExec, 0, len(parts))
			for _, part := range parts {
				mask := 0
				for _, d := range part {
					mask |= 1 << uint(d)
				}
				pe := partExec{Spill: spillbound.Spill{Penalty: math.Inf(1)}}
				ok := false
				for _, leader := range part {
					// An empty part (no contour cell spills on any of its
					// dims) has penalty 0 under every leader and needs no
					// execution, so the min below handles it uniformly.
					if cand, feasible := st.partPenalty(mask, leader); feasible && cand.Penalty < pe.Penalty {
						pe = cand
						ok = true
					}
				}
				if !ok {
					return // infeasible partition
				}
				total += pe.Penalty
				execs = append(execs, pe)
			}
			if total < bestPenalty {
				bestPenalty = total
				best = execs
			}
			return
		}
		d := free[k]
		for i := range parts {
			parts[i] = append(parts[i], d)
			rec(k + 1)
			parts[i] = parts[i][:len(parts[i])-1]
		}
		parts = append(parts, []int{d})
		rec(k + 1)
		parts = parts[:len(parts)-1]
	}
	rec(0)
	if best == nil {
		return nil, 0
	}
	return best, bestPenalty
}

// Run performs AlignedBound discovery (Algorithm 2) against the engine's
// hidden true location.
func (r *Runner) Run(e engine.Executor) Outcome {
	out, _ := r.RunContext(context.Background(), engine.AsContextExecutor(e))
	return out
}

// RunContext is Run with cancellation and error-aware execution: the
// shared discovery driver (spillbound.Drive) runs the contours, taking
// each one's spills from the minimum-penalty partition cover.
func (r *Runner) RunContext(ctx context.Context, e engine.ContextExecutor) (Outcome, error) {
	return spillbound.Drive(ctx, r.Space, r.Ratio, r.Resume, partitionPlanner(r.Space), e)
}

// partitionPlanner is AlignedBound's planner: one spill per non-empty part
// of the contour's minimum-penalty partition cover, the cover's total
// penalty as the plan's.
func partitionPlanner(s *ess.Space) spillbound.Planner {
	return spillbound.Planner{Slot: ess.AlignedBoundSlot, Plan: func(c spillbound.Contour) spillbound.Plan {
		st := newContourState(s, c.Cells, c.Learned)
		execs, penalty := st.bestPartition(c.Free)
		t := table(s)
		t.mu.Lock()
		t.costed += st.costed
		t.mu.Unlock()
		spills := make([]spillbound.Spill, 0, len(execs))
		for _, pe := range execs {
			if !pe.empty {
				spills = append(spills, pe.Spill)
			}
		}
		return spillbound.Plan{Spills: spills, Penalty: penalty}
	}}
}
