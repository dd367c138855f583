package ess

import (
	"context"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/sqlmini"
)

func testCatalog() *catalog.Catalog {
	c := catalog.New("test")
	c.MustAddTable(&catalog.Table{
		Name: "part", Rows: 20000, RowBytes: 100,
		Columns: []catalog.Column{
			{Name: "p_partkey", Distinct: 20000, Min: 1, Max: 20000},
			{Name: "p_retailprice", Distinct: 1000, Min: 0, Max: 2000},
		},
	})
	c.MustAddTable(&catalog.Table{
		Name: "lineitem", Rows: 600000, RowBytes: 120,
		Columns: []catalog.Column{
			{Name: "l_partkey", Distinct: 20000, Min: 1, Max: 20000},
			{Name: "l_orderkey", Distinct: 150000, Min: 1, Max: 150000},
		},
	})
	c.MustAddTable(&catalog.Table{
		Name: "orders", Rows: 150000, RowBytes: 80,
		Columns: []catalog.Column{
			{Name: "o_orderkey", Distinct: 150000, Min: 1, Max: 150000},
		},
	})
	return c
}

func buildSpace(t *testing.T, res int) *Space {
	t.Helper()
	s, err := BuildParallelContext(context.Background(), testModel(t), NewGrid(2, res, 1e-6), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testModel(t *testing.T) *cost.Model {
	t.Helper()
	q := sqlmini.MustParse(testCatalog(), `
		SELECT * FROM part p, lineitem l, orders o
		WHERE p.p_partkey = l.l_partkey AND l.l_orderkey = o.o_orderkey
		AND p.p_retailprice < 1000`)
	if err := q.MarkEPPs("p.p_partkey = l.l_partkey", "l.l_orderkey = o.o_orderkey"); err != nil {
		t.Fatal(err)
	}
	return cost.MustNewModel(q, cost.PostgresLike())
}

func TestGridBasics(t *testing.T) {
	g := NewGrid(3, 5, 1e-4)
	if g.Size() != 125 {
		t.Fatalf("Size = %d, want 125", g.Size())
	}
	if g.Res(0) != 5 || g.D != 3 {
		t.Fatalf("Res/D wrong")
	}
	pts := g.Points[0]
	if math.Abs(pts[0]-1e-4) > 1e-12 || pts[4] != 1 {
		t.Errorf("endpoints = %g, %g", pts[0], pts[4])
	}
	for i := 1; i < len(pts); i++ {
		if pts[i] <= pts[i-1] {
			t.Errorf("points not ascending at %d: %v", i, pts)
		}
	}
	// Log spacing: ratio between consecutive points constant.
	r1, r2 := pts[1]/pts[0], pts[2]/pts[1]
	if math.Abs(r1-r2)/r1 > 1e-9 {
		t.Errorf("not log-spaced: ratios %g vs %g", r1, r2)
	}
}

func TestGridFlattenRoundTrip(t *testing.T) {
	g := NewGrid(3, 4, 1e-3)
	buf := make([]int, 3)
	f := func(a, b, c uint8) bool {
		idx := []int{int(a) % 4, int(b) % 4, int(c) % 4}
		ci := g.Flatten(idx)
		got := g.Unflatten(ci, buf)
		for d := range idx {
			if got[d] != idx[d] || g.Coord(ci, d) != idx[d] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGridStepAndCorners(t *testing.T) {
	g := NewGrid(2, 3, 1e-2)
	if g.Origin() != 0 || g.Terminus() != g.Size()-1 {
		t.Errorf("origin/terminus = %d/%d", g.Origin(), g.Terminus())
	}
	ci := g.Flatten([]int{2, 1})
	next, ok := g.Step(ci, 1)
	if !ok || g.Coord(next, 1) != 2 {
		t.Errorf("Step dim1: %d, %v", next, ok)
	}
	if _, ok := g.Step(next, 1); ok {
		t.Error("Step at max should report !ok")
	}
	if _, ok := g.Step(ci, 0); ok {
		t.Error("Step dim0 at max should report !ok")
	}
}

func TestGridCeilIndex(t *testing.T) {
	g := NewGrid(1, 4, 1e-3) // points: 1e-3, 1e-2, 1e-1, 1
	cases := []struct {
		sel  float64
		want int
	}{
		{1e-4, 0}, {1e-3, 0}, {5e-3, 1}, {1e-2, 1}, {0.5, 3}, {1, 3}, {2, 3},
	}
	for _, tc := range cases {
		if got := g.CeilIndex(0, tc.sel); got != tc.want {
			t.Errorf("CeilIndex(%g) = %d, want %d", tc.sel, got, tc.want)
		}
	}
}

func TestGridPanicsOnBadSpec(t *testing.T) {
	for _, f := range []func(){
		func() { NewGrid(0, 4, 0.1) },
		func() { NewGrid(2, 1, 0.1) },
		func() { NewGrid(2, 4, 0) },
		func() { NewGrid(2, 4, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestSpaceBuild(t *testing.T) {
	s := buildSpace(t, 8)
	if got := len(s.Plans()); got < 2 {
		t.Errorf("POSP size = %d, want >= 2 (plan diversity)", got)
	}
	if s.MinCost() <= 0 || s.MaxCost() <= s.MinCost() {
		t.Errorf("cost range [%g, %g] malformed", s.MinCost(), s.MaxCost())
	}
	// Every cell's recorded cost must match re-evaluating its plan.
	for ci := 0; ci < s.Grid.Size(); ci += 7 {
		ev := s.Model.Eval(s.PlanAt(ci), s.Grid.Location(ci))
		if math.Abs(ev-s.CostAt(ci))/s.CostAt(ci) > 1e-9 {
			t.Fatalf("cell %d: recorded %g, eval %g", ci, s.CostAt(ci), ev)
		}
	}
}

func TestOCSMonotone(t *testing.T) {
	s := buildSpace(t, 8)
	g := s.Grid
	for ci := 0; ci < g.Size(); ci++ {
		for d := 0; d < g.D; d++ {
			if next, ok := g.Step(ci, d); ok && s.CostAt(next) < s.CostAt(ci)-1e-9 {
				t.Fatalf("OCS not monotone: cell %d dim %d: %g -> %g",
					ci, d, s.CostAt(ci), s.CostAt(next))
			}
		}
	}
}

func TestContourCosts(t *testing.T) {
	s := buildSpace(t, 8)
	costs := s.ContourCosts(CostDoublingRatio)
	if costs[0] != s.MinCost() {
		t.Errorf("first contour = %g, want C_min %g", costs[0], s.MinCost())
	}
	if costs[len(costs)-1] != s.MaxCost() {
		t.Errorf("last contour = %g, want C_max %g", costs[len(costs)-1], s.MaxCost())
	}
	for i := 1; i < len(costs)-1; i++ {
		if math.Abs(costs[i]/costs[i-1]-2) > 1e-9 {
			t.Errorf("contour %d not doubling: %g / %g", i, costs[i], costs[i-1])
		}
	}
	// Last step is capped, never more than doubling.
	n := len(costs)
	if n >= 2 && costs[n-1] > costs[n-2]*2+1e-9 {
		t.Errorf("final contour overshoots doubling: %g after %g", costs[n-1], costs[n-2])
	}
}

func TestContourCostsBadRatioPanics(t *testing.T) {
	s := buildSpace(t, 4)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for ratio <= 1")
		}
	}()
	s.ContourCosts(1.0)
}

// TestContourFrontier checks the defining properties of a discrete iso-cost
// contour: every contour cell is inside the hypograph, no contour cell
// strictly dominates another, and every hypograph cell is dominated by some
// contour cell.
func TestContourFrontier(t *testing.T) {
	s := buildSpace(t, 8)
	g := s.Grid
	full := s.Full()
	for _, cc := range s.ContourCosts(2)[1:4] {
		cells := full.ContourCells(cc)
		if len(cells) == 0 {
			t.Fatalf("contour %g empty", cc)
		}
		inContour := map[int]bool{}
		for _, ci := range cells {
			if s.CostAt(ci) > cc {
				t.Errorf("contour cell %d cost %g above budget %g", ci, s.CostAt(ci), cc)
			}
			inContour[ci] = true
		}
		// Pairwise non-dominance.
		for _, a := range cells {
			for _, b := range cells {
				if a == b {
					continue
				}
				la, lb := g.Location(a), g.Location(b)
				if la.Dominates(lb) {
					t.Fatalf("contour cells %v dominates %v", la, lb)
				}
			}
		}
		// Coverage: every hypograph cell is dominated by a contour cell.
		for ci := 0; ci < g.Size(); ci++ {
			if s.CostAt(ci) > cc {
				continue
			}
			loc := g.Location(ci)
			covered := false
			for _, fc := range cells {
				if g.Location(fc).Dominates(loc) {
					covered = true
					break
				}
			}
			if !covered {
				t.Fatalf("hypograph cell %v not covered by contour %g", loc, cc)
			}
		}
	}
}

func TestSubspaceFixAndEach(t *testing.T) {
	s := buildSpace(t, 6)
	sub := s.Full().Fix(0, 3)
	if gi := sub.fixed[0]; gi != 3 {
		t.Errorf("fixed[0] = %d", gi)
	}
	if free := sub.FreeDims(); len(free) != 1 || free[0] != 1 {
		t.Errorf("FreeDims = %v", free)
	}
	count := 0
	sub.Each(func(ci int) {
		if s.Grid.Coord(ci, 0) != 3 {
			t.Errorf("cell %d escapes fixed dim", ci)
		}
		count++
	})
	if count != 6 {
		t.Errorf("Each visited %d cells, want 6", count)
	}
	if c0 := s.Grid.Coord(sub.MinCorner(), 0); c0 != 3 {
		t.Errorf("MinCorner dim0 = %d", c0)
	}
	if c1 := s.Grid.Coord(sub.MaxCorner(), 1); c1 != 5 {
		t.Errorf("MaxCorner dim1 = %d", c1)
	}
}

func TestSubspaceContour(t *testing.T) {
	s := buildSpace(t, 8)
	sub := s.Full().Fix(0, 4)
	costs := s.ContourCosts(2)
	// In a 1D subspace every non-empty contour has exactly one cell.
	for _, cc := range costs {
		cells := sub.ContourCells(cc)
		if len(cells) > 1 {
			t.Errorf("1D contour at %g has %d cells", cc, len(cells))
		}
		for _, ci := range cells {
			if s.Grid.Coord(ci, 0) != 4 {
				t.Errorf("subspace contour cell leaves fixed dim")
			}
		}
	}
	// The final contour (C_max of the full space) must include the
	// subspace terminus.
	last := sub.ContourCells(costs[len(costs)-1])
	if len(last) != 1 || last[0] != sub.MaxCorner() {
		t.Errorf("final subspace contour = %v, want [%d]", last, sub.MaxCorner())
	}
}

func TestCoveringContour(t *testing.T) {
	costs := []float64{10, 20, 40, 80}
	cases := []struct {
		c    float64
		want int
	}{{5, 0}, {10, 0}, {11, 1}, {40, 2}, {79, 3}, {200, 3}}
	for _, tc := range cases {
		if got := CoveringContour(costs, tc.c); got != tc.want {
			t.Errorf("CoveringContour(%g) = %d, want %d", tc.c, got, tc.want)
		}
	}
}

func TestContourCellsCached(t *testing.T) {
	s := buildSpace(t, 8)
	sub := s.Full()
	costs := s.ContourCosts(2)
	for _, cc := range costs[:4] {
		plain := sub.ContourCells(cc)
		cached := sub.CachedContour(cc).Cells
		if !slices.Equal(plain, cached) {
			t.Fatalf("cached frontier %v, want %v", cached, plain)
		}
		// Second call hits the cache and returns the same slice contents.
		if again := sub.CachedContour(cc).Cells; !slices.Equal(again, cached) {
			t.Fatal("cache unstable")
		}
	}
	// Distinct subspaces get distinct memo keys.
	keys := map[uint64]string{}
	for name, u := range map[string]Subspace{
		"full": sub, "0=2": sub.Fix(0, 2), "0=3": sub.Fix(0, 3),
		"1=2": sub.Fix(1, 2), "0=2,1=2": sub.Fix(0, 2).Fix(1, 2),
	} {
		if prev, dup := keys[u.key()]; dup {
			t.Errorf("subspaces %s and %s share memo key %d", prev, name, u.key())
		}
		keys[u.key()] = name
	}
	if sub.Fix(0, 2).s != s {
		t.Error("Fix lost the subspace's space")
	}
}

// TestContourPlanOnce has 16 goroutines ask one unplanned contour's slot at
// once. The planner waits until every goroutine is about to ask, so the
// asks overlap the planning: it must still run exactly once, and every
// goroutine must get its result.
func TestContourPlanOnce(t *testing.T) {
	s := buildSpace(t, 8)
	c := s.Full().CachedContour(s.ContourCosts(2)[2])
	const askers = 16
	var ready, done sync.WaitGroup
	ready.Add(askers)
	var calls atomic.Int32
	plan := func() any {
		calls.Add(1)
		ready.Wait()
		time.Sleep(time.Millisecond)
		return slices.Clone(c.Cells)
	}
	got := make([]any, askers)
	start := make(chan struct{})
	for g := range got {
		done.Add(1)
		go func() {
			defer done.Done()
			<-start
			ready.Done()
			got[g] = c.Plan(AlignedBoundSlot, plan)
		}()
	}
	close(start)
	done.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("the planner ran %d times for one contour slot, want 1", n)
	}
	for g, v := range got {
		if cells, ok := v.([]int); !ok || &cells[0] != &got[0].([]int)[0] {
			t.Fatalf("goroutine %d got %v, not the one planned choice", g, v)
		}
	}
	// The other slot is planned on its own first ask.
	if c.Plan(SpillBoundSlot, func() any { return 1 }).(int) != 1 || calls.Load() != 1 {
		t.Error("slots share a planner run")
	}
}

// TestContourMemoBound fills a Space's contour memo past its limit: it is
// reset wholesale, and the cells and planner choices recomputed after the
// reset equal those before it.
func TestContourMemoBound(t *testing.T) {
	s := buildSpace(t, 8)
	sub := s.Full()
	costs := s.ContourCosts(2)
	calls := 0
	// A stand-in planner, a pure function of the contour: per dimension,
	// the contour cell with the largest coordinate along it.
	plan := func(cells []int) func() any {
		return func() any {
			calls++
			best := make([]int, s.Grid.D)
			for d := range best {
				for _, ci := range cells {
					if s.Grid.Coord(ci, d) >= s.Grid.Coord(best[d], d) {
						best[d] = ci
					}
				}
			}
			return best
		}
	}
	type choice struct {
		cells []int
		plan  []int
	}
	before := make([]choice, len(costs))
	for i, cc := range costs {
		c := sub.CachedContour(cc)
		before[i] = choice{c.Cells, c.Plan(SpillBoundSlot, plan(c.Cells)).([]int)}
	}
	if calls != len(costs) || len(s.memo) != len(costs) {
		t.Fatalf("%d plan calls, %d entries; want %d each", calls, len(s.memo), len(costs))
	}
	// Hits do not plan again.
	for _, cc := range costs {
		c := sub.CachedContour(cc)
		c.Plan(SpillBoundSlot, plan(c.Cells))
	}
	if calls != len(costs) {
		t.Fatalf("memo hits planned again: %d calls", calls)
	}
	// Fill to the limit with budgets between the contours'; the next miss
	// resets the memo.
	for k := 0; len(s.memo) < contourMemoLimit; k++ {
		sub.CachedContour(costs[0] * (1 + float64(k+1)*1e-9))
	}
	sub.CachedContour(costs[len(costs)-1] * 2)
	if len(s.memo) != 1 {
		t.Fatalf("memo past its limit holds %d entries, want 1 after a reset", len(s.memo))
	}
	calls = 0
	for i, cc := range costs {
		c := sub.CachedContour(cc)
		got := choice{c.Cells, c.Plan(SpillBoundSlot, plan(c.Cells)).([]int)}
		if !slices.Equal(got.cells, before[i].cells) || !slices.Equal(got.plan, before[i].plan) {
			t.Errorf("contour %d after reset: %+v, before %+v", i, got, before[i])
		}
	}
	if calls != len(costs) {
		t.Errorf("after the reset %d contours planned, want %d", calls, len(costs))
	}
}
