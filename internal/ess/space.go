package ess

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
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

	mu           sync.Mutex
	contourCache map[string][]int
}

// BuildProgress observes an in-flight build: done of total grid cells have
// been optimized. It is invoked concurrently from worker goroutines, so
// implementations must be safe for concurrent use (an atomic store or a
// mutex suffices). done is monotone nondecreasing per observer call site
// only in aggregate; treat each call as "at least done cells finished".
type BuildProgress func(done, total int)

// buildChunkCells is the fixed work-unit size of a parallel build: workers
// pull chunks of this many contiguous cells from a shared queue. The chunk
// geometry depends only on the grid — never on the worker count — so the
// build_chunk event set (and hence the session-build span tree) is
// byte-identical across serial and parallel builds; parallelism only changes
// which worker claims which chunk, and span derivation sorts chunks by
// CellLo, so scheduling never shows in the tree.
const buildChunkCells = 32

// BuildParallelContext enumerates the whole grid through the optimizer,
// recording the optimal plan and cost of every cell. This is the
// preprocessing step whose expense the paper notes (Sec 7), and it is the
// only way to build a Space from a cost model. The grid is partitioned
// across workers — the paper's Sec 7 observation that "the contour
// constructions can be carried out in parallel since they do not have any
// dependence on each other" — with cancellation and progress reporting: the
// context is polled between optimizer calls (an expired deadline or cancel
// abandons the build and returns the context's error), and progress, when
// non-nil, observes the running cell count. workers <= 0 uses GOMAXPROCS
// and workers == 1 builds serially; the grid is split into fixed-size
// chunks pulled by the workers, one optimizer instance per worker over the
// shared cost model. Plan numbering follows first appearance in flat cell
// order, so the resulting Space is identical whatever the worker count.
func BuildParallelContext(ctx context.Context, m *cost.Model, g Grid, workers int, progress BuildProgress) (*Space, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > g.Size() {
		workers = g.Size()
	}
	s := &Space{
		Grid:    g,
		Query:   m.Query,
		Model:   m,
		optCost: make([]float64, g.Size()),
		planIdx: make([]int32, g.Size()),
	}
	type cellPlan struct {
		fp   string
		plan *plan.Plan
	}
	fps := make([]cellPlan, g.Size())

	var wg sync.WaitGroup
	var done atomic.Int64
	var nextChunk atomic.Int64
	total := g.Size()
	numChunks := (total + buildChunkCells - 1) / buildChunkCells
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			o, err := optimizer.New(m)
			if err != nil {
				errs[w] = err
				return
			}
			for {
				k := int(nextChunk.Add(1)) - 1
				if k >= numChunks || ctx.Err() != nil {
					return
				}
				lo, hi := k*buildChunkCells, (k+1)*buildChunkCells
				if hi > total {
					hi = total
				}
				for ci := lo; ci < hi; ci++ {
					if ctx.Err() != nil {
						return
					}
					p, c := o.Optimize(g.Location(ci))
					s.optCost[ci] = c
					fps[ci] = cellPlan{fp: p.Fingerprint(), plan: p}
					n := done.Add(1)
					if progress != nil {
						progress(int(n), total)
					}
				}
				// One build_chunk event per completed work unit: the
				// per-chunk spans of a session-build trace. The recorder is
				// concurrency-safe.
				telemetry.From(ctx).Record(telemetry.Event{
					Kind: telemetry.BuildChunk, Dim: -1, CellLo: lo, CellHi: hi,
				})
			}
		}(w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// Deterministic plan numbering: first appearance in cell order.
	byFP := make(map[string]int32)
	for ci := 0; ci < g.Size(); ci++ {
		id, ok := byFP[fps[ci].fp]
		if !ok {
			id = int32(len(s.plans))
			s.plans = append(s.plans, fps[ci].plan)
			byFP[fps[ci].fp] = id
		}
		s.planIdx[ci] = id
	}
	return s, nil
}

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

// Space returns the underlying space.
func (u Subspace) Space() *Space { return u.s }

// Fix returns a copy of the subspace with dimension d pinned to grid index
// gi.
func (u Subspace) Fix(d, gi int) Subspace {
	nf := make([]int, len(u.fixed))
	copy(nf, u.fixed)
	nf[d] = gi
	return Subspace{s: u.s, fixed: nf}
}

// Fixed reports whether dimension d is pinned, and to which grid index.
func (u Subspace) Fixed(d int) (int, bool) {
	gi := u.fixed[d]
	return gi, gi >= 0
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
// free dimensions) of the hypograph {q : Cost(Pq,q) <= cc}. Plan cost
// monotonicity makes the single-step successor test sufficient. The result
// is empty when the hypograph does not intersect the subspace.
func (u Subspace) ContourCells(cc float64) []int {
	g := u.s.Grid
	free := u.FreeDims()
	var out []int
	u.Each(func(ci int) {
		if u.s.optCost[ci] > cc {
			return
		}
		for _, d := range free {
			if next, ok := g.Step(ci, d); ok && u.s.optCost[next] <= cc {
				return // a dominating cell is still inside: not maximal
			}
		}
		out = append(out, ci)
	})
	return out
}

// Key returns a canonical string identifying the subspace's fixed
// dimensions, used as a cache key.
func (u Subspace) Key() string {
	var b strings.Builder
	for d, gi := range u.fixed {
		if gi >= 0 {
			fmt.Fprintf(&b, "%d=%d;", d, gi)
		}
	}
	return b.String()
}

// ContourCellsCached is ContourCells with memoization on the underlying
// Space, safe for concurrent use. Discovery sweeps re-explore the same
// contours for every candidate true location; the frontier depends only on
// the subspace and the budget, so caching removes the dominant cost.
func (u Subspace) ContourCellsCached(cc float64) []int {
	key := fmt.Sprintf("%s|%x", u.Key(), math.Float64bits(cc))
	u.s.mu.Lock()
	if u.s.contourCache == nil {
		u.s.contourCache = make(map[string][]int)
	}
	cells, ok := u.s.contourCache[key]
	u.s.mu.Unlock()
	if ok {
		return cells
	}
	cells = u.ContourCells(cc)
	u.s.mu.Lock()
	u.s.contourCache[key] = cells
	u.s.mu.Unlock()
	return cells
}

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

// NearlyEqual reports approximate float equality with relative tolerance.
func NearlyEqual(a, b, rel float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= rel*scale
}
