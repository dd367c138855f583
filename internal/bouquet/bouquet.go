// Package bouquet implements the PlanBouquet algorithm of Dutt & Haritsa
// (TODS 2016), the baseline the paper improves upon: selectivity discovery
// through cost-budgeted executions of the plans on doubling iso-cost
// contours, together with the anorexic reduction of the plan diagram
// (Harish et al., VLDB 2007) that keeps the contour plan density ρ — and
// hence the MSO guarantee 4·(1+λ)·ρ — practical. The package also provides
// the budgeted execution loop over a subspace that SpillBound and
// AlignedBound reuse as their terminal 1-D phase.
package bouquet

import (
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/cost"
	"repro/internal/ess"
)

// Assignment maps ESS cells to plan identities; *ess.Space is the identity
// assignment (each cell's optimal plan) and *Diagram is a reduced one.
type Assignment interface {
	// PlanIDAt returns the POSP index of the plan assigned to cell ci.
	PlanIDAt(ci int) int
}

// Diagram is a plan diagram over a Space after anorexic reduction: each
// cell is assigned a plan whose cost at the cell is within (1+Lambda) of
// optimal, drawn from a (much smaller) subset of the POSP.
type Diagram struct {
	// Space is the underlying ESS.
	Space *ess.Space
	// Lambda is the cost-inflation threshold used for the reduction
	// (paper Sec 6.2 uses the default 0.2).
	Lambda float64

	planIdx []int32
	kept    []int // POSP indices of the surviving plans, ascending

	schedMu sync.Mutex
	scheds  []schedule // one per contour budget list asked of Schedule
}

// schedule is the diagram's plan bouquet under one contour budget list.
type schedule struct {
	costs []float64
	plans [][]int
}

// PlanIDAt returns the plan assigned to cell ci after reduction.
func (d *Diagram) PlanIDAt(ci int) int { return int(d.planIdx[ci]) }

// PlanCount returns the number of distinct plans surviving the reduction.
func (d *Diagram) PlanCount() int { return len(d.kept) }

// Reduce performs anorexic reduction of the space's plan diagram with
// threshold lambda: plans are greedily swallowed (smallest optimality
// region first, lower POSP index first among equal regions) by
// re-assigning each of their cells to another surviving plan whose cost
// there stays within (1+lambda) of optimal. A victim is swallowed only if
// every one of its cells can be re-homed; otherwise it survives untouched.
// Each cell goes to the cheapest qualifying survivor; among survivors of
// equal cost the lowest POSP index wins, and a cost of exactly
// (1+lambda)·optimal still qualifies, so the diagram is a deterministic
// function of the space. The resulting diagram retains near-optimality
// everywhere while typically shrinking the plan count dramatically.
//
// The survivors are costed at each cell through a cost.PlanSet over the
// POSP, which evaluates every subtree shared between plans once per cell.
// A victim's cells are re-homed across GOMAXPROCS workers, each with its
// own PlanSet; see rehome for why the diagram does not depend on them.
func Reduce(s *ess.Space, lambda float64) *Diagram {
	g := s.Grid
	n := g.Size()
	d := &Diagram{Space: s, Lambda: lambda, planIdx: make([]int32, n)}
	// Cells per plan, for area ordering and re-assignment.
	cellsOf := make([][]int, len(s.Plans()))
	for ci := 0; ci < n; ci++ {
		id := s.PlanIDAt(ci)
		d.planIdx[ci] = int32(id)
		cellsOf[id] = append(cellsOf[id], ci)
	}
	for id, cells := range cellsOf {
		if len(cells) > 0 {
			d.kept = append(d.kept, id)
		}
	}
	if lambda <= 0 {
		return d
	}

	order := slices.Clone(d.kept)
	sort.SliceStable(order, func(i, j int) bool {
		return len(cellsOf[order[i]]) < len(cellsOf[order[j]])
	})

	evs := make([]*cost.PlanSet, runtime.GOMAXPROCS(0))
	evs[0] = cost.NewPlanSet(s.Model, s.Plans())
	for w := 1; w < len(evs); w++ {
		evs[w] = evs[0].Clone()
	}
	var cells []int
	var to []int32
	for _, victim := range order {
		if len(d.kept) == 1 {
			break
		}
		cells = cells[:0]
		for _, ci := range cellsOf[victim] {
			if int(d.planIdx[ci]) == victim { // not re-homed by an earlier swallow
				cells = append(cells, ci)
			}
		}
		var ok bool
		if to, ok = rehome(evs, s, d.kept, victim, cells, lambda, to); !ok {
			continue
		}
		for i, ci := range cells {
			d.planIdx[ci] = to[i]
			// Track the moved cell under its new owner so a later swallow
			// of that owner re-homes it again instead of stranding it.
			cellsOf[to[i]] = append(cellsOf[to[i]], ci)
		}
		i, _ := slices.BinarySearch(d.kept, victim)
		d.kept = slices.Delete(d.kept, i, i+1)
	}
	return d
}

// rehome finds a new owner for each of the victim's cells, into to[i] for
// cells[i]: the cheapest plan of kept other than the victim whose cost at
// the cell is within (1+lambda) of optimal, the lowest POSP index among
// equal costs. It reports false when some cell has no such plan. Workers,
// one per PlanSet of evs (at most one per cell), claim cells in turn and
// stop early once one fails. A cell's owner depends only on the kept set,
// the victim and the cell, and the caller applies the moves in cell order
// after every worker is done, so the diagram is the serial one whatever
// the worker count or schedule.
func rehome(evs []*cost.PlanSet, s *ess.Space, kept []int, victim int, cells []int, lambda float64, to []int32) ([]int32, bool) {
	to = slices.Grow(to[:0], len(cells))[:len(cells)]
	var next atomic.Int64
	var failed atomic.Bool
	work := func(ev *cost.PlanSet) {
		for !failed.Load() {
			i := int(next.Add(1)) - 1
			if i >= len(cells) {
				return
			}
			ci := cells[i]
			ev.At(s.Grid.Location(ci))
			limit := s.CostAt(ci) * (1 + lambda)
			bestID, bestCost := -1, limit
			for _, id := range kept {
				if id == victim {
					continue
				}
				if c := ev.Cost(id); c <= limit && (bestID < 0 || c < bestCost) {
					bestID, bestCost = id, c
				}
			}
			if bestID < 0 {
				failed.Store(true)
				return
			}
			to[i] = int32(bestID)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(len(evs), len(cells)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(evs[w])
		}()
	}
	work(evs[0])
	wg.Wait()
	return to, !failed.Load()
}

// ReductionStats quantifies an anorexic reduction's effect (Harish et al.'s
// headline: plan diagrams collapse to ~10 plans within a 20% cost
// threshold).
type ReductionStats struct {
	// POSPSize is the plan count before reduction.
	POSPSize int
	// ReducedSize is the plan count after reduction.
	ReducedSize int
	// MaxInflation is the largest assigned-vs-optimal cost ratio over all
	// cells (bounded by 1+Lambda by construction).
	MaxInflation float64
	// AvgInflation is the mean ratio over all cells.
	AvgInflation float64
}

// Stats computes the diagram's reduction statistics.
func (d *Diagram) Stats() ReductionStats {
	s := d.Space
	g := s.Grid
	st := ReductionStats{POSPSize: len(s.Plans()), ReducedSize: d.PlanCount(), MaxInflation: 1}
	sum := 0.0
	for ci := 0; ci < g.Size(); ci++ {
		ratio := 1.0
		if id := d.PlanIDAt(ci); id != s.PlanIDAt(ci) {
			ratio = s.Model.Eval(s.Plans()[id], g.Location(ci)) / s.CostAt(ci)
		}
		sum += ratio
		if ratio > st.MaxInflation {
			st.MaxInflation = ratio
		}
	}
	st.AvgInflation = sum / float64(g.Size())
	return st
}

// ContourDensities returns, for each contour budget, the number of distinct
// plans the assignment places on the contour's cells, plus the maximum —
// the ρ of the MSO guarantee. costs must ascend, as ContourCosts returns
// them.
func ContourDensities(s *ess.Space, a Assignment, costs []float64) (densities []int, rho int) {
	plans := contourPlans(s, a, costs)
	densities = make([]int, len(plans))
	for i, ids := range plans {
		densities[i] = len(ids)
		rho = max(rho, len(ids))
	}
	return densities, rho
}

// contourPlans returns, for each contour budget, the distinct plans the
// assignment places on the contour's cells, in first-appearance order over
// ascending cell index: distinctPlans of the contour's ContourCells. costs
// must ascend.
//
// It is one pass over the grid. Cell ci lies on the contour with budget cc
// exactly when Cost(ci) <= cc < Cost(Step(ci,d)) for every successor (the
// maximality test of ess.Subspace.ContourCells), so the contours holding ci
// are those whose budget falls in [Cost(ci), min over d of Cost(Step(ci,d))):
// a contiguous index range of the ascending budgets, each of whose lists
// gains the cell's plan unless its bitset already holds it. Cells are
// visited in ascending order, so each list is in first-appearance order.
func contourPlans(s *ess.Space, a Assignment, costs []float64) [][]int {
	if !sort.Float64sAreSorted(costs) {
		panic("bouquet: contour budgets must ascend")
	}
	g := s.Grid
	words := (len(s.Plans()) + 63) / 64
	planBits := make([]uint64, len(costs)*words) // contour i's plans at [i*words, (i+1)*words)
	plans := make([][]int, len(costs))
	for ci := 0; ci < g.Size(); ci++ {
		next := math.Inf(1) // cheapest successor: the budget the cell stops being maximal at
		for d := 0; d < g.D; d++ {
			if up, ok := g.Step(ci, d); ok && s.CostAt(up) < next {
				next = s.CostAt(up)
			}
		}
		lo := sort.SearchFloat64s(costs, s.CostAt(ci)) // first budget >= Cost(ci)
		hi := sort.SearchFloat64s(costs, next)         // first budget >= next
		id := a.PlanIDAt(ci)
		w, bit := id/64, uint64(1)<<(id%64)
		for i := lo; i < hi; i++ {
			if seen := &planBits[i*words+w]; *seen&bit == 0 {
				*seen |= bit
				plans[i] = append(plans[i], id)
			}
		}
	}
	return plans
}

// Schedule returns the diagram's plan bouquet under the contour budgets
// costs (ascending, as ContourCosts returns them): for each contour, the
// distinct plans the diagram assigns to its cells, in first-appearance
// order over ascending cell index. These are the plans PlanBouquet
// executes on the contour, in execution order, and ρ is the longest list,
// so they are fixed once the diagram exists: the lists are built in one
// grid pass on the first ask for a budget list and shared by every later
// ask. Callers must not modify them. Safe for concurrent use.
func (d *Diagram) Schedule(costs []float64) [][]int {
	d.schedMu.Lock()
	defer d.schedMu.Unlock()
	for _, sc := range d.scheds {
		if slices.Equal(sc.costs, costs) {
			return sc.plans
		}
	}
	plans := contourPlans(d.Space, d, costs)
	d.scheds = append(d.scheds, schedule{costs: slices.Clone(costs), plans: plans})
	return plans
}

// Guarantee returns PlanBouquet's MSO guarantee 4·(1+λ)·ρ for the reduced
// diagram under the given contour budgets, ρ read from its schedule.
func (d *Diagram) Guarantee(costs []float64) float64 {
	rho := 0
	for _, ids := range d.Schedule(costs) {
		rho = max(rho, len(ids))
	}
	return 4 * (1 + d.Lambda) * float64(rho)
}

// GuaranteeWithRatio returns PlanBouquet's bound (1+λ)·ρ·r²/(r-1) under a
// geometric contour ratio r: executing all ρ plans on every contour up to
// k+1 costs at most (1+λ)ρ·sum r^{i-1} <= (1+λ)ρ·r²·r^{k-1}/(r-1), against
// an oracle floor of r^{k-1}·CC1. The expression is minimized at exactly
// r=2 — the paper's footnote 3: "a doubling factor minimizes the MSO
// guarantee" for PlanBouquet (unlike SpillBound, whose optimum is ≈1.8).
func GuaranteeWithRatio(rho int, lambda, r float64) float64 {
	if r <= 1 {
		panic("bouquet: contour ratio must exceed 1")
	}
	return (1 + lambda) * float64(rho) * r * r / (r - 1)
}
