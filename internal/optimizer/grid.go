package optimizer

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/cost"
	"repro/internal/par"
	"repro/internal/plan"
)

// The whole-grid DP. A subset's entry reads the location only through the
// joins that cross its splits, and those joins lie inside the subset: scans
// read no location, and a child's entry reads only the joins inside the
// child. So the entry of subset S is a function of the coordinates of the
// epps inside S alone, and one table per subset with one entry per grid
// point of its own epps holds every cell's DP. OptimizeGrid fills those
// tables; Optimize is the same DP over the one-point grid {at}. Both run
// the one split loop, filler.fill, so their costs and ties cannot differ.

// table is one subset's DP table over a grid.
type table struct {
	// entries holds one entry per grid point of dims, the last dimension
	// varying fastest, as in a flat grid.
	entries []dpEntry
	// dims lists the dimensions whose epp lies inside the subset, in
	// ascending order.
	dims []int
	// strides[d] is dimension d's stride in entries, 0 for a dimension
	// outside dims.
	strides []int
}

// filler is one worker's state for the DP's split loop.
type filler struct {
	o      *Optimizer
	points [][]float64 // per dimension, its grid points
	tabs   []table     // per subset
	// at holds the location of the entry being costed; only the
	// dimensions of the subset being filled are read.
	at      cost.Location
	digits  []int     // the entry's grid index along each of the subset's dims
	cost    []float64 // the best cost so far of each entry of a range
	joinBuf []int     // the crossing joins of one split, ascending ID
	splits  int       // split evaluations: one per (split, entry) costed
}

// fill computes entries [lo, hi) of subset s's table from the tables of its
// subsets: for every ordered split of s the DP costs (Optimizer.splits, in
// submask order), it prices the physical alternatives at each entry's
// location and keeps the strictly cheapest. The tables of s's proper
// subsets must be complete. The full set's entries get no sorted cost: no
// merge join takes them as input.
func (f *filler) fill(s, lo, hi int) {
	o, m := f.o, f.o.model
	best := f.tabs[s].entries[lo:hi]
	if cap(f.cost) < len(best) {
		f.cost = make([]float64, len(best))
	}
	bestCost := f.cost[:len(best)]
	for i := range best {
		best[i] = dpEntry{}
		bestCost[i] = math.Inf(1)
	}
	points, dims := f.points, f.tabs[s].dims
	splits := 0
	for _, sp := range o.splits[o.splitAt[s]:o.splitAt[s+1]] {
		// The crossing joins in ascending ID order: the order the cost
		// model multiplies their selectivities in.
		f.joinBuf = appendJoinIDs(f.joinBuf[:0], sp.cross)
		t1, t2 := &f.tabs[sp.s1], &f.tabs[sp.s2]
		// Place the cursor at entry lo: its digits, its location and its
		// children's entries.
		i1, i2 := 0, 0
		for j, rem := len(dims)-1, lo; j >= 0; j-- {
			d := dims[j]
			c := rem % len(points[d])
			rem /= len(points[d])
			f.digits[j] = c
			f.at[d] = points[d][c]
			i1 += c * t1.strides[d]
			i2 += c * t2.strides[d]
		}
		for p := range best {
			e1, e2, b := &t1.entries[i1], &t2.entries[i2], &best[p]
			// Every alternative produces the same rows: sorting keeps a
			// row count, and an index nested loop's inner side, a single
			// relation, has its base rows.
			out := m.JoinRowsFor(f.joinBuf, e1.nc.Rows, e2.nc.Rows, f.at)
			consider := func(kind plan.OpKind, l, r cost.NodeCost) {
				nc := m.JoinNCOut(kind, out, l, r)
				if nc.Total < bestCost[p] {
					bestCost[p] = nc.Total
					b.nc, b.kind, b.joins = nc, kind, sp.cross
					b.left, b.right, b.li, b.ri = sp.s1, sp.s2, int32(i1), int32(i2)
				}
			}
			consider(plan.HashJoin, e1.nc, e2.nc)
			consider(plan.MergeJoin, e1.sorted, e2.sorted)
			consider(plan.NestLoop, e1.nc, e2.nc)
			if sp.s2&(sp.s2-1) == 0 {
				consider(plan.IndexNestLoop, e1.nc, e2.nc)
			}
			// Advance the cursor one entry: the last dimension fastest.
			for j := len(dims) - 1; j >= 0; j-- {
				d := dims[j]
				if f.digits[j]++; f.digits[j] < len(points[d]) {
					f.at[d] = points[d][f.digits[j]]
					i1 += t1.strides[d]
					i2 += t2.strides[d]
					break
				}
				f.digits[j] = 0
				f.at[d] = points[d][0]
				i1 -= (len(points[d]) - 1) * t1.strides[d]
				i2 -= (len(points[d]) - 1) * t2.strides[d]
			}
		}
		splits += len(best)
	}
	f.splits += splits
	if s != len(f.tabs)-1 {
		for i := range best {
			best[i].sorted = m.SortNC(best[i].nc)
		}
	}
}

// Optima is the optimum at every cell of a grid.
type Optima struct {
	// Costs[ci] is Cost(Pq, q) at flat cell ci.
	Costs []float64
	// PlanIdx[ci] indexes cell ci's optimal plan in Plans.
	PlanIdx []int32
	// Plans lists the distinct optimal plans in order of first appearance
	// over ascending flat cell index.
	Plans []*plan.Plan
	// Splits counts split evaluations, one per (split, table entry) the DP
	// costed: the layer count optimizer.splits.
	Splits int
}

// OptimizeGrid finds the optimal plan and cost at every cell of the grid
// whose dimension d has the grid points points[d] (flat cell order: the
// last dimension varies fastest). It equals Optimize at every cell, bit for
// bit, and costs each connected subset once per grid point of its own epps
// rather than once per cell.
//
// The tables are filled level by level, by subset size; within a level, at
// most workers workers (par.Each) claim chunks of at most chunk entries of
// one table. The full set's table is indexed by flat cell, so its chunks
// are chunk contiguous cells; after each, chunkDone(lo, hi) is called from the worker
// that finished it, concurrently with other workers. The context is checked
// before every chunk, and a canceled build returns the context's error.
// The tables live only for the call. Plans are numbered through o's intern
// table, so, as with Optimize, calls on one Optimizer must not overlap.
func (o *Optimizer) OptimizeGrid(ctx context.Context, points [][]float64, workers, chunk int, chunkDone func(lo, hi int)) (*Optima, error) {
	if len(points) != o.q.D() || len(points) == 0 {
		return nil, fmt.Errorf("optimizer: grid has %d dims, query has %d epps", len(points), o.q.D())
	}
	size := 1 << uint(o.n)
	full := size - 1
	if !o.connected[full] {
		return nil, fmt.Errorf("optimizer: no plan for the full relation set (disconnected query?)")
	}
	tabs := o.gridTables(points)
	// Each worker's scratch fills whole cache lines of its own: workers
	// writing one line would serialize on it.
	lines := func(n int) int { return (n + 7) &^ 7 } // 8-byte elements
	fillers := make([]*filler, max(workers, 1))
	for w := range fillers {
		fillers[w] = &filler{o: o, points: points, tabs: tabs,
			at:      make(cost.Location, len(points), lines(len(points))),
			digits:  make([]int, len(points), lines(len(points))),
			cost:    make([]float64, 0, lines(chunk)),
			joinBuf: make([]int, 0, lines(len(o.q.Joins))),
		}
	}
	res := &Optima{Costs: make([]float64, len(tabs[full].entries))}

	type item struct{ s, lo, hi int }
	var items []item
	for level := 2; level <= o.n; level++ {
		items = items[:0]
		for s := 3; s < size; s++ {
			if bits.OnesCount(uint(s)) != level || !o.connected[s] {
				continue
			}
			for lo, n := 0, len(tabs[s].entries); lo < n; lo += chunk {
				items = append(items, item{s, lo, min(lo+chunk, n)})
			}
		}
		par.Each(ctx, len(items), len(fillers), func(w, k int) {
			it := items[k]
			fillers[w].fill(it.s, it.lo, it.hi)
			if it.s == full {
				for ci := it.lo; ci < it.hi; ci++ {
					res.Costs[ci] = o.rootCost(&tabs[full].entries[ci])
				}
				chunkDone(it.lo, it.hi)
			}
		})
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	for _, f := range fillers {
		res.Splits += f.splits
	}
	res.PlanIdx, res.Plans = o.gridPlans(ctx, tabs, len(fillers))
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// gridTables lays out one table per connected subset over the grid, with
// the singletons' scan entries filled in.
func (o *Optimizer) gridTables(points [][]float64) []table {
	tabs := make([]table, 1<<uint(o.n))
	for s := range tabs {
		if !o.connected[s] {
			continue
		}
		t := &tabs[s]
		for d, id := range o.q.EPPs {
			if o.internalMask[s]&(1<<uint(id)) != 0 {
				t.dims = append(t.dims, d)
			}
		}
		t.strides = make([]int, len(points))
		n := 1
		for j := len(t.dims) - 1; j >= 0; j-- {
			t.strides[t.dims[j]] = n
			n *= len(points[t.dims[j]])
		}
		t.entries = make([]dpEntry, n)
	}
	for r := 0; r < o.n; r++ {
		tabs[1<<uint(r)].entries[0] = o.scanEntry(r)
	}
	return tabs
}

// gridPlans numbers the optimal plans of the full set's table, one per
// cell, by first appearance in cell order. Subtrees are interned by
// (subset, entry), so each entry is walked once, and by structure, so each
// distinct subtree is built once and each distinct plan made once. The
// numbering is serial; the plans, each only reading the interned nodes,
// are then made by at most workers workers. A canceled context leaves
// some plans nil.
func (o *Optimizer) gridPlans(ctx context.Context, tabs []table, workers int) ([]int32, []*plan.Plan) {
	memo := make([][]int32, len(tabs))
	for s, t := range tabs {
		memo[s] = make([]int32, len(t.entries))
		for i := range memo[s] {
			memo[s][i] = -1
		}
	}
	full := int32(len(tabs) - 1)
	planIdx := make([]int32, len(tabs[full].entries))
	var roots []int32             // root intern id, by POSP index
	posp := make(map[int32]int32) // root intern id -> POSP index
	for ci := range planIdx {
		id := o.intern(tabs, memo, full, int32(ci))
		pi, ok := posp[id]
		if !ok {
			pi = int32(len(roots))
			posp[id] = pi
			roots = append(roots, id)
		}
		planIdx[ci] = pi
	}
	plans := make([]*plan.Plan, len(roots))
	par.Each(ctx, len(roots), workers, func(_, i int) { plans[i] = o.rootPlan(roots[i]) })
	return planIdx, plans
}
