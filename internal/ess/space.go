package ess

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/cost"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/telemetry"
)

// Space is the explored ESS: the optimal cost surface (OCS) and the
// parametric optimal set of plans (POSP) over a grid, produced by repeated
// optimizer invocations with injected selectivities (paper Sec 2.2).
type Space struct {
	// Grid is the discretization.
	Grid Grid
	// Query is the underlying query.
	Query *query.Query
	// Model is the shared cost model.
	Model *cost.Model

	optCost []float64
	planIdx []int32
	plans   []*plan.Plan
	splits  int

	memoMu sync.Mutex
	memo   map[contourKey]*Contour
	state  [numPlanSlots]any

	tableOnce sync.Once
	table     *cost.PlanSet // the POSP's node table; it holds no memo
	lent      sync.Pool     // *PlanCosts given back by borrowers
}

// BuildProgress observes an in-flight build. It is called once per grid
// cell, after the cell's optimal plan and cost are final; done counts the
// cells finished so far, of total. Calls come from the build's worker
// goroutines, concurrently, so implementations must be safe for concurrent
// use (an atomic store or a mutex suffices), and calls from different
// workers may arrive out of order: a call with a smaller done can follow
// one with a larger.
type BuildProgress func(done, total int)

// buildChunkCells is the fixed work-unit size of a build: workers claim
// chunks of at most this many entries of one DP table, and the full
// relation set's table is indexed by flat cell, so its chunks are runs of
// this many contiguous cells. The chunk geometry depends only on the grid —
// never on the worker count — so the build_chunk event set (and hence the
// session-build span tree) is byte-identical across serial and parallel
// builds; parallelism only changes which worker claims which chunk, and
// span derivation sorts chunks by CellLo, so scheduling never shows in the
// tree.
const buildChunkCells = 32

// BuildParallelContext finds the optimal plan and cost of every grid cell.
// This is the preprocessing step whose expense the paper notes (Sec 7), and
// it is the only way to build a Space from a cost model. It runs the
// optimizer's DP once over the whole grid (optimizer.OptimizeGrid): each
// connected relation subset is costed once per grid point of its own epps,
// which gives every cell exactly the plan and cost Optimize gives it. The
// DP tables are filled level by level, workers sharing out fixed-size
// chunks of each table — the paper's Sec 7 observation that the
// constructions "can be carried out in parallel". Each chunk of cells of
// the final table records a build_chunk event and reports its cells to
// progress, when non-nil. The context is checked before every chunk: a
// cancel or an expired deadline abandons the build and returns the
// context's error. workers <= 0 uses GOMAXPROCS. Plan numbering follows
// first appearance in flat cell order, so the resulting Space is identical
// whatever the worker count.
func BuildParallelContext(ctx context.Context, m *cost.Model, g Grid, workers int, progress BuildProgress) (*Space, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	o, err := optimizer.New(m)
	if err != nil {
		return nil, err
	}
	total := g.Size()
	var done atomic.Int64
	rec := telemetry.From(ctx)
	r, err := o.OptimizeGrid(ctx, g.Points, workers, buildChunkCells, func(lo, hi int) {
		for ci := lo; ci < hi; ci++ {
			n := done.Add(1)
			if progress != nil {
				progress(int(n), total)
			}
		}
		// One build_chunk event per finished chunk of cells: the
		// per-chunk spans of a session-build trace. The recorder is
		// concurrency-safe.
		rec.Record(telemetry.Event{Kind: telemetry.BuildChunk, Dim: -1, CellLo: lo, CellHi: hi})
	})
	if err != nil {
		return nil, err
	}
	return &Space{
		Grid:    g,
		Query:   m.Query,
		Model:   m,
		optCost: r.Costs,
		planIdx: r.PlanIdx,
		plans:   r.Plans,
		splits:  r.Splits,
	}, nil
}

// Splits returns the split evaluations the build of s made (the layer
// count optimizer.splits): one per (split, DP table entry) costed. It is 0
// for a loaded or synthetic Space.
func (s *Space) Splits() int { return s.splits }

// FromSurface constructs a Space from an explicit optimal-cost surface and
// plan assignment, bypassing the optimizer. It exists for adversarial and
// synthetic analyses (e.g. the Theorem 4.6 lower-bound construction) and
// for tests that need full control of the cost geometry. costAt must be
// monotone nondecreasing along every axis (PCM); planAt must index into
// plans. The model m is still used to cost plan executions.
func FromSurface(m *cost.Model, g Grid, plans []*plan.Plan, costAt func(ci int) float64, planAt func(ci int) int) *Space {
	s := &Space{
		Grid:    g,
		Query:   m.Query,
		Model:   m,
		optCost: make([]float64, g.Size()),
		planIdx: make([]int32, g.Size()),
		plans:   plans,
	}
	for ci := 0; ci < g.Size(); ci++ {
		s.optCost[ci] = costAt(ci)
		s.planIdx[ci] = int32(planAt(ci))
	}
	return s
}

// CostAt returns the optimal cost Cost(Pq,q) of cell ci.
func (s *Space) CostAt(ci int) float64 { return s.optCost[ci] }

// PlanIDAt returns the POSP index of cell ci's optimal plan.
func (s *Space) PlanIDAt(ci int) int { return int(s.planIdx[ci]) }

// PlanAt returns cell ci's optimal plan.
func (s *Space) PlanAt(ci int) *plan.Plan { return s.plans[s.planIdx[ci]] }

// Plans returns the POSP — every plan optimal somewhere on the grid.
func (s *Space) Plans() []*plan.Plan { return s.plans }

// MinCost returns the optimal cost at the origin (C_min).
func (s *Space) MinCost() float64 { return s.optCost[s.Grid.Origin()] }

// MaxCost returns the optimal cost at the terminus (C_max).
func (s *Space) MaxCost() float64 { return s.optCost[s.Grid.Terminus()] }

// ContourCosts returns the iso-cost contour budgets of paper Sec 2.5:
// CC_1 = C_min, doubling thereafter, with the final value capped at C_max.
// The geometric ratio is configurable through r (the paper uses 2; Sec 4.2
// notes slightly better constants near 1.8 for SpillBound).
func (s *Space) ContourCosts(r float64) []float64 {
	if r <= 1 {
		panic("ess: contour cost ratio must exceed 1")
	}
	cmin, cmax := s.MinCost(), s.MaxCost()
	var out []float64
	for c := cmin; c < cmax; c *= r {
		out = append(out, c)
	}
	return append(out, cmax)
}

// CostDoublingRatio is the paper's default contour cost ratio.
const CostDoublingRatio = 2.0

// Subspace is the effective search space after zero or more dimensions have
// been fully learnt and snapped to grid coordinates (paper Sec 4.2: "the
// effective search space is the subset of locations ... whose selectivity
// along the learnt dimensions matches the learnt selectivities").
type Subspace struct {
	s *Space
	// fixed[d] is the grid index dimension d is pinned to, or -1 if free.
	fixed []int
}

// Full returns the unrestricted subspace.
func (s *Space) Full() Subspace {
	f := make([]int, s.Grid.D)
	for d := range f {
		f[d] = -1
	}
	return Subspace{s: s, fixed: f}
}

// Fix returns a copy of the subspace with dimension d pinned to grid index
// gi.
func (u Subspace) Fix(d, gi int) Subspace {
	nf := make([]int, len(u.fixed))
	copy(nf, u.fixed)
	nf[d] = gi
	return Subspace{s: u.s, fixed: nf}
}

// FreeDims returns the unpinned dimensions in ascending order.
func (u Subspace) FreeDims() []int {
	var out []int
	for d, gi := range u.fixed {
		if gi < 0 {
			out = append(out, d)
		}
	}
	return out
}

// Each calls f for every flat cell index inside the subspace, in ascending
// flat order.
func (u Subspace) Each(f func(ci int)) {
	g := u.s.Grid
	free := u.FreeDims()
	idx := make([]int, g.D)
	for d, gi := range u.fixed {
		if gi >= 0 {
			idx[d] = gi
		}
	}
	var rec func(k int)
	rec = func(k int) {
		if k == len(free) {
			f(g.Flatten(idx))
			return
		}
		d := free[k]
		for i := 0; i < g.Res(d); i++ {
			idx[d] = i
			rec(k + 1)
		}
	}
	rec(0)
}

// MinCorner returns the flat index of the subspace's minimum cell.
func (u Subspace) MinCorner() int {
	g := u.s.Grid
	idx := make([]int, g.D)
	for d, gi := range u.fixed {
		if gi >= 0 {
			idx[d] = gi
		}
	}
	return g.Flatten(idx)
}

// MaxCorner returns the flat index of the subspace's maximum cell (its
// terminus).
func (u Subspace) MaxCorner() int {
	g := u.s.Grid
	idx := make([]int, g.D)
	for d, gi := range u.fixed {
		if gi >= 0 {
			idx[d] = gi
		} else {
			idx[d] = g.Res(d) - 1
		}
	}
	return g.Flatten(idx)
}

// ContourCells returns the cells of the iso-cost contour with budget cc
// inside the subspace: the maximal cells (under the dominance order over
// free dimensions) of the hypograph {q : Cost(Pq,q) <= cc}, in ascending
// flat order. Plan cost monotonicity makes the single-step successor test
// sufficient. The result is empty when the hypograph does not intersect the
// subspace. The walk is an odometer over the free dimensions' grid indices
// that moves the flat index by the grid strides, so a cell costs one
// comparison per free dimension and no index conversion.
func (u Subspace) ContourCells(cc float64) []int {
	g := u.s.Grid
	cost := u.s.optCost
	free := u.FreeDims()
	idx := make([]int, len(free)) // odometer digits, one per free dimension
	var out []int
	for ci := u.MinCorner(); ; {
		if cost[ci] <= cc {
			maximal := true
			for k, d := range free {
				if idx[k] < g.Res(d)-1 && cost[ci+g.strides[d]] <= cc {
					maximal = false // a dominating cell is still inside
					break
				}
			}
			if maximal {
				out = append(out, ci)
			}
		}
		// Advance: the last free dimension varies fastest, as in flat order.
		k := len(free) - 1
		for ; k >= 0; k-- {
			d := free[k]
			if idx[k]++; idx[k] < g.Res(d) {
				ci += g.strides[d]
				break
			}
			ci -= (idx[k] - 1) * g.strides[d]
			idx[k] = 0
		}
		if k < 0 {
			return out
		}
	}
}

// key packs the fixed coordinates into one integer: mixed radix Res(d)+1
// per dimension, digit gi+1 for a pinned dimension and 0 for a free one.
// The packed range is at most 1.5^D times the grid size, far inside 64 bits
// for any grid that fits in memory.
func (u Subspace) key() uint64 {
	var k uint64
	for d, gi := range u.fixed {
		k = k*uint64(u.s.Grid.Res(d)+1) + uint64(gi+1)
	}
	return k
}

// contourKey identifies one contour of one subspace in a Space's memo.
type contourKey struct {
	fixed  uint64 // Subspace.key
	budget uint64 // math.Float64bits of the contour budget
}

// contourMemoLimit bounds a Space's contour memo. Exhaustive SpillBound and
// AlignedBound sweeps at the benchmark resolutions fill about 1.7k entries
// on 4D_Q91, 4.8k on 5D_Q84 and over 16k on 6D_Q18. Past the limit the memo
// is reset wholesale, as optimizer.Shared does, which costs only
// recomputation.
const contourMemoLimit = 1 << 15

// PlanSlot is a contour planner's slot in a memo entry and in a Space's
// planner state: each discovery planner that memoizes its choices owns one.
type PlanSlot int

// The planner slots.
const (
	SpillBoundSlot PlanSlot = iota
	AlignedBoundSlot
	numPlanSlots
)

// Contour is one iso-cost contour of a subspace as the Space's memo holds
// it: its cells and, per planner slot, the planner's choice on it.
type Contour struct {
	// Cells are the contour's cells, as ContourCells returns them; callers
	// must not modify them.
	Cells []int

	mu    sync.Mutex
	plans [numPlanSlots]any
}

// Plan returns the choice memoized in slot, computing it with plan on the
// first ask. Concurrent first asks may each compute; plan must be a pure
// function of the contour, so whichever result is kept equals the others.
func (c *Contour) Plan(slot PlanSlot, plan func() any) any {
	c.mu.Lock()
	v := c.plans[slot]
	c.mu.Unlock()
	if v != nil {
		return v
	}
	v = plan()
	c.mu.Lock()
	c.plans[slot] = v
	c.mu.Unlock()
	return v
}

// CachedContour returns the contour with budget cc inside the subspace from
// the Space's memo, computing its cells on a miss; safe for concurrent use.
// Discovery sweeps re-explore the same contours for every candidate true
// location, and the cells and each planner's choice depend only on the
// subspace and the budget, so a hit equals a fresh computation. Subspaces
// with fewer than two free dimensions are not memoized: the terminal 1-D
// contour of a PlanBouquet phase holds about one cell, a scan of at most
// Res cells costs less than the entry, and those subspaces would otherwise
// make up most of the memo. They get a fresh, unshared entry.
func (u Subspace) CachedContour(cc float64) *Contour {
	if len(u.FreeDims()) < 2 {
		return &Contour{Cells: u.ContourCells(cc)}
	}
	key := contourKey{fixed: u.key(), budget: math.Float64bits(cc)}
	s := u.s
	s.memoMu.Lock()
	c, ok := s.memo[key]
	s.memoMu.Unlock()
	if ok {
		return c
	}
	c = &Contour{Cells: u.ContourCells(cc)}
	s.memoMu.Lock()
	if prev, ok := s.memo[key]; ok {
		c = prev // a concurrent miss stored it first; share its plans
	} else {
		if s.memo == nil || len(s.memo) >= contourMemoLimit {
			s.memo = make(map[contourKey]*Contour)
		}
		s.memo[key] = c
	}
	s.memoMu.Unlock()
	return c
}

// ContourCellsCached is ContourCells through the Space's contour memo:
// memoized for subspaces with two or more free dimensions, a plain scan for
// the 1-D subspaces of the terminal PlanBouquet phase (see CachedContour).
// Safe for concurrent use.
func (u Subspace) ContourCellsCached(cc float64) []int { return u.CachedContour(cc).Cells }

// PlannerState returns slot's per-Space planner state, creating it with
// init on first use; safe for concurrent use. It holds what a planner
// derives from the Space alone, beside the per-contour memo, and is never
// reset.
func (s *Space) PlannerState(slot PlanSlot, init func() any) any {
	s.memoMu.Lock()
	defer s.memoMu.Unlock()
	if s.state[slot] == nil {
		s.state[slot] = init()
	}
	return s.state[slot]
}

// PlanCosts prices POSP plans at up to cost.Lanes grid cells at a time,
// each bit for bit Model.Eval: a clone of the Space's node table with its
// own memo, filled bottom-up from a schedule in one lane per cell (see
// cost.PlanSet), so a subtree shared by many plans is costed once per
// cell. Space.BorrowCosts lends one, and Space.PlanSchedule builds the
// schedules. A PlanCosts is not safe for concurrent use.
type PlanCosts struct {
	ps   *cost.PlanSet
	g    *Grid
	locs [cost.Lanes]cost.Location
}

// Eval costs, in lane j, the schedule prefix slots[:cut[j]] at cell
// cells[j], for up to cost.Lanes cells; cut must not increase. Cost then
// reads, in each lane, every plan whose nodes its prefix holds.
func (c *PlanCosts) Eval(cells []int, slots []int32, cut []int) {
	for j, ci := range cells {
		loc := c.locs[j]
		for d := range loc {
			loc[d] = c.g.Points[d][c.g.Coord(ci, d)]
		}
	}
	c.ps.Eval(c.locs[:len(cells)], slots, cut)
}

// Cost returns the cost of POSP plan id in lane j, at the cell of the last
// Eval whose prefix in that lane held the plan.
func (c *PlanCosts) Cost(j, id int) float64 { return c.ps.Cost(j, id) }

// planTable returns the Space's node table over its POSP, hash-consing it
// on first use.
func (s *Space) planTable() *cost.PlanSet {
	s.tableOnce.Do(func() { s.table = cost.NewPlanSet(s.Model, s.plans) })
	return s.table
}

// PlanSchedule returns the schedule of POSP plans order, and slots[:cut[i]]
// that of order[i+1:] (see cost.PlanSet.Schedule). Safe for concurrent use.
func (s *Space) PlanSchedule(order []int) (slots []int32, cut []int) {
	return s.planTable().Schedule(order)
}

// BorrowCosts lends the caller a PlanCosts over the POSP, to give back with
// ReturnCosts once done. The Space owns the one node table (cost.PlanSet)
// over its POSP, hash-consed on first use; every PlanCosts is a clone of
// it, which a later borrower may reuse. Safe for concurrent use.
func (s *Space) BorrowCosts() *PlanCosts {
	if c, ok := s.lent.Get().(*PlanCosts); ok {
		return c
	}
	c := &PlanCosts{ps: s.planTable().Clone(), g: &s.Grid}
	d := s.Grid.D
	buf := make([]float64, cost.Lanes*d)
	for j := range c.locs {
		c.locs[j] = buf[j*d : (j+1)*d : (j+1)*d]
	}
	return c
}

// ReturnCosts takes back a PlanCosts lent by BorrowCosts; the caller must
// not use it afterwards.
func (s *Space) ReturnCosts(c *PlanCosts) { s.lent.Put(c) }

// CoveringContour returns the index (into costs) of the first contour whose
// hypograph contains the subspace cell ci — the contour an execution at ci
// completes within.
func CoveringContour(costs []float64, c float64) int {
	for i, cc := range costs {
		if c <= cc*(1+1e-12) {
			return i
		}
	}
	return len(costs) - 1
}
