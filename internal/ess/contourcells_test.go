package ess

import (
	"context"
	"slices"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/workload"
)

// referenceContourCells is the Each-based contour scan: every subspace cell
// inside the hypograph with no successor inside it, in Each's flat order.
// ContourCells must return exactly these cells in this order.
func referenceContourCells(u Subspace, cc float64) []int {
	g := u.s.Grid
	free := u.FreeDims()
	var out []int
	u.Each(func(ci int) {
		if u.s.CostAt(ci) > cc {
			return
		}
		for _, d := range free {
			if next, ok := g.Step(ci, d); ok && u.s.CostAt(next) <= cc {
				return
			}
		}
		out = append(out, ci)
	})
	return out
}

// suiteSpace builds a benchmark suite query's ESS at its recommended grid.
func suiteSpace(t *testing.T, name string) *Space {
	t.Helper()
	sp, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown suite query %s", name)
	}
	q, err := sp.Build(catalog.TPCDS(100))
	if err != nil {
		t.Fatal(err)
	}
	s, err := BuildParallelContext(context.Background(), cost.MustNewModel(q, cost.PostgresLike()),
		NewGrid(q.D(), sp.GridRes, sp.GridLo), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestContourCellsMatchesEachReference pins the odometer walk of
// ContourCells to the Each-based scan on the 4D, 5D and 6D suite spaces,
// over the full space and pinned subspaces (one, two and all but one
// dimension fixed), at every contour budget of ratios 2 and 1.5 and at
// budgets equal to cell costs, where successors tie with the budget.
func TestContourCellsMatchesEachReference(t *testing.T) {
	for _, name := range []string{"4D_Q91", "5D_Q84", "6D_Q18"} {
		s := suiteSpace(t, name)
		g := s.Grid
		last := g.D - 1
		subs := map[string]Subspace{
			"full":         s.Full(),
			"d0=0":         s.Full().Fix(0, 0),
			"dLast=max":    s.Full().Fix(last, g.Res(last)-1),
			"d1,d2=mid":    s.Full().Fix(1, g.Res(1)/2).Fix(2, g.Res(2)/2),
			"one free dim": s.Full().Fix(0, 1).Fix(1, 1).Fix(2, g.Res(2)-1),
		}
		for d := 3; d < last; d++ {
			subs["one free dim"] = subs["one free dim"].Fix(d, d%g.Res(d))
		}
		budgets := append(s.ContourCosts(2), s.ContourCosts(1.5)...)
		for _, ci := range []int{0, g.Size() / 7, g.Size() / 3, g.Size() / 2, g.Size() - 1} {
			budgets = append(budgets, s.CostAt(ci))
		}
		for label, u := range subs {
			for _, cc := range budgets {
				got, want := u.ContourCells(cc), referenceContourCells(u, cc)
				if !slices.Equal(got, want) {
					t.Fatalf("%s %s budget %g: ContourCells %v, reference %v", name, label, cc, got, want)
				}
			}
		}
	}
}
