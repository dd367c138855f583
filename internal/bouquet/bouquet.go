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
	"context"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"

	"repro/internal/cost"
	"repro/internal/ess"
	"repro/internal/par"
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
// Each plan is costed at a cell at most once, through the Space's POSP cost
// table (ess.PlanCosts), which evaluates every subtree shared between plans
// once per cell, bottom-up from a precomputed schedule. A cell is first
// re-homed when its optimal plan is the victim. The survivors then are the
// plans after that owner in swallow order and the plans before it whose
// swallow failed, and a plan's cost at a cell never changes, so every
// later re-homing of the cell picks from a subset of those costs. Reduce
// therefore begins with one parallel pass over the grid (feasiblePlans)
// that lists, for each cell, the plans after its owner within (1+lambda)
// of optimal, with their costs. The greedy loop then costs only the failed
// survivors before the owner, at a cell's first visit (see owner), and
// reads everything else from the cell's list. The lists live in per-worker
// slabs that are dropped when Reduce returns.
func Reduce(s *ess.Space, lambda float64) *Diagram {
	d, _ := reduce(s, lambda)
	return d
}

// reduce is Reduce, also returning the number of plan-set nodes it costed,
// counted from the schedules it evaluated: the pre-pass's ranked cut at
// every cell, and the failed survivors' schedule at every first visit. A
// failing swallow stops at the first cell that finds no owner, in cell
// order, so the count is fixed by the space.
func reduce(s *ess.Space, lambda float64) (*Diagram, int) {
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
	if lambda <= 0 || len(d.kept) == 1 {
		return d, 0
	}

	order := slices.Clone(d.kept)
	sort.SliceStable(order, func(i, j int) bool {
		return len(cellsOf[order[i]]) < len(cellsOf[order[j]])
	})

	costs := make([]*ess.PlanCosts, runtime.GOMAXPROCS(0))
	for w := range costs {
		costs[w] = s.BorrowCosts()
		defer s.ReturnCosts(costs[w])
	}
	r := &rehomer{
		s:        s,
		lambda:   lambda,
		costs:    costs[0],
		rank:     make([]int, len(s.Plans())),
		live:     make([]bool, len(s.Plans())),
		fallback: make([]entry, n),
	}
	for i, id := range order {
		r.rank[id] = i
		r.live[id] = true
	}
	byRank := make([]int, 0, n) // the cells in their owner's swallow order
	for _, id := range order {
		byRank = append(byRank, cellsOf[id]...)
	}
	slots, cut := s.PlanSchedule(order)
	var evals int
	r.lists, evals = feasiblePlans(costs, s, order, r.rank, byRank, slots, cut, lambda)
	var cells []int
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
		ok := r.rehome(victim, cells)
		for _, ci := range cells[:len(r.to)] {
			if s.PlanIDAt(ci) == victim {
				evals += len(r.failedSlots)
			}
		}
		if !ok {
			r.failed = append(r.failed, victim)
			r.failedSlots, _ = s.PlanSchedule(r.failed)
			continue
		}
		for i, ci := range cells {
			to := r.to[i]
			d.planIdx[ci] = to
			// Track the moved cell under its new owner so a later swallow
			// of that owner re-homes it again instead of stranding it.
			cellsOf[to] = append(cellsOf[to], ci)
		}
		r.live[victim] = false
		i, _ := slices.BinarySearch(d.kept, victim)
		d.kept = slices.Delete(d.kept, i, i+1)
	}
	return d, evals
}

// entry is a plan that can take a cell: its POSP index, -1 for none, and
// its cost there. In a cell's list, ahead is the distance to the best entry
// from this one on. Entries hold no pointers, so the garbage collector
// never scans a slab of them.
type entry struct {
	id, ahead int32
	cost      float64
}

// beats reports whether e is a better owner than o: cheaper, or as cheap
// with a lower POSP index. Every entry beats an id of -1.
func (e entry) beats(o entry) bool {
	return o.id < 0 || e.cost < o.cost || e.cost == o.cost && e.id < o.id
}

// rehomer is the greedy loop's state: the survivors and each cell's
// candidates.
type rehomer struct {
	s      *ess.Space
	lambda float64
	costs  *ess.PlanCosts
	rank   []int  // by POSP index: the position in swallow order
	live   []bool // by POSP index: not swallowed
	lists  *cellLists
	// failed holds the plans whose swallow failed, in swallow order, and
	// failedSlots their schedule. They survive for good and are never a
	// victim again, so a cell keeps only the cheapest one known to take it:
	// fallback[ci], id -1 for none.
	failed      []int
	failedSlots []int32
	fallback    []entry
	// to holds the last rehome's owners, to[i] for its cells[i], one per
	// cell visited: -1 for none.
	to []int32
}

// rehome finds a new owner for each of the victim's cells in turn, into
// r.to[i] for cells[i], and reports false when some cell has none; it
// stops at that cell.
func (r *rehomer) rehome(victim int, cells []int) bool {
	r.to = r.to[:0]
	for _, ci := range cells {
		best := r.owner(ci, victim)
		r.to = append(r.to, best.id)
		if best.id < 0 {
			return false
		}
	}
	return true
}

// owner returns the new owner of cell ci, which the victim owns: the
// cheapest survivor other than the victim within (1+lambda) of optimal,
// the lowest POSP index among equal costs, or id -1 when there is none.
// On the cell's first visit, the victim being its optimal plan, the failed
// survivors are costed there. The plans up to the victim in swallow order
// are settled by now, so they are dropped from the front of the cell's
// list, the failed ones folded into its fallback; every plan left in the
// list is a survivor, and the first entry's ahead names the best of them.
func (r *rehomer) owner(ci, victim int) entry {
	if r.s.PlanIDAt(ci) == victim {
		r.fallback[ci] = r.cheapestFailed(ci)
	}
	list := r.lists.of(ci)
	q := 0
	for ; q < len(list) && r.rank[list[q].id] <= r.rank[victim]; q++ {
		if e := list[q]; int(e.id) != victim && r.live[e.id] && e.beats(r.fallback[ci]) {
			r.fallback[ci] = e
		}
	}
	r.lists.spans[ci].lo += int32(q)
	best := r.fallback[ci]
	if q < len(list) {
		if e := list[q+int(list[q].ahead)]; e.beats(best) {
			best = e
		}
	}
	return best
}

// cheapestFailed returns the cheapest failed survivor at cell ci within
// (1+lambda) of optimal, the lowest POSP index among equal costs, or id -1.
func (r *rehomer) cheapestFailed(ci int) entry {
	best := entry{id: -1}
	if len(r.failed) == 0 {
		return best
	}
	cells, cut := [1]int{ci}, [1]int{len(r.failedSlots)}
	r.costs.Eval(cells[:], r.failedSlots, cut[:])
	limit := r.s.CostAt(ci) * (1 + r.lambda)
	for _, id := range r.failed {
		if c := r.costs.Cost(0, id); c <= limit {
			if e := (entry{id: int32(id), cost: c}); e.beats(best) {
				best = e
			}
		}
	}
	return best
}

// cellLists holds, for every cell, the plans after its owner in swallow
// order whose cost there is within (1+lambda) of optimal, in swallow
// order. Each worker fills its own slab, a run of blocks that are never
// grown or copied, and a cell's list lies in one block.
type cellLists struct {
	slabs [][][]entry // slabs[w][b] is block b of worker w
	spans []span      // by cell
}

// span places a cell's list at entries [lo, hi) of block b of slab w.
type span struct{ w, b, lo, hi int32 }

func (l *cellLists) of(ci int) []entry {
	sp := l.spans[ci]
	return l.slabs[sp.w][sp.b][sp.lo:sp.hi]
}

const (
	// feasibleChunk is the number of cells, in owner-rank order, a worker
	// claims at once: a whole number of cost.Lanes units.
	feasibleChunk = 4 * cost.Lanes
	// listBlock is the least number of entries in a slab block (256 KiB).
	listBlock = 1 << 14
)

// feasiblePlans builds every cell's list in one pass over the grid, each
// entry's ahead included. byRank holds the cells in their owner's swallow
// order. Workers, one per cost table (at most one per chunk), claim chunks
// of byRank in turn and append to their own slab. A block holds at least
// the longest list a cell can have, and a new one is started when the next
// cell's list does not fit. A cell costs the plans after its owner through
// slots[:cut[rank of the owner]], their schedule (ess.Space.PlanSchedule),
// in one lane of a cost.Lanes-cell unit: the unit's cells are consecutive
// in owner rank, so their prefixes do not grow from lane to lane, as the
// lane kernel requires. The pass also returns the number of nodes those
// prefixes hold over all cells. A cell's list depends only on the cell, so
// the lists, and the diagram the greedy loop draws from them, are the same
// whatever the worker count or schedule.
func feasiblePlans(costs []*ess.PlanCosts, s *ess.Space, order, rank, byRank []int, slots []int32, cut []int, lambda float64) (*cellLists, int) {
	n := s.Grid.Size()
	l := &cellLists{slabs: make([][][]entry, len(costs)), spans: make([]span, n)}
	evals := make([]int, len(costs))
	lanes := make([][cost.Lanes][]entry, len(costs)) // per worker, each lane's list
	par.Each(context.Background(), (n+feasibleChunk-1)/feasibleChunk, len(costs), func(w, k int) {
		slab, lists := l.slabs[w], &lanes[w]
		var rk, cuts [cost.Lanes]int
		var limit [cost.Lanes]float64
		chunk := byRank[k*feasibleChunk : min((k+1)*feasibleChunk, n)]
		for len(chunk) > 0 {
			unit := chunk[:min(cost.Lanes, len(chunk))]
			chunk = chunk[len(unit):]
			for j, ci := range unit {
				rk[j] = rank[s.PlanIDAt(ci)]
				cuts[j] = cut[rk[j]]
				evals[w] += cuts[j]
				limit[j] = s.CostAt(ci) * (1 + lambda)
				lists[j] = lists[j][:0]
			}
			costs[w].Eval(unit, slots, cuts[:len(unit)])
			// Plan by plan, so that the lanes' costs of one plan, adjacent
			// in the memo, are read together: lane j lists the plans after
			// rank rk[j], and the lanes holding position p are a prefix.
			m := 0
			for p := rk[0] + 1; p < len(order); p++ {
				for m < len(unit) && rk[m] < p {
					m++
				}
				id := order[p]
				for j := range m {
					if c := costs[w].Cost(j, id); c <= limit[j] {
						lists[j] = append(lists[j], entry{id: int32(id), cost: c})
					}
				}
			}
			for j, ci := range unit {
				if len(slab) == 0 || cap(slab[len(slab)-1])-len(slab[len(slab)-1]) < len(lists[j]) {
					slab = append(slab, make([]entry, 0, max(listBlock, len(order))))
				}
				b := len(slab) - 1
				start := len(slab[b])
				block := append(slab[b], lists[j]...)
				for i := len(block) - 2; i >= start; i-- {
					if to := i + 1 + int(block[i+1].ahead); block[to].beats(block[i]) {
						block[i].ahead = int32(to - i)
					}
				}
				slab[b] = block
				l.spans[ci] = span{int32(w), int32(b), int32(start), int32(len(block))}
			}
		}
		l.slabs[w] = slab
	})
	total := 0
	for _, e := range evals {
		total += e
	}
	return l, total
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
