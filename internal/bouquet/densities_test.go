package bouquet

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ess"
	"repro/internal/plan"
)

// contourDensities returns, for each contour budget, the number of
// distinct plans contourPlans places on the contour, plus the maximum — the
// ρ of the MSO guarantee.
func contourDensities(s *ess.Space, a Assignment, costs []float64) (densities []int, rho int) {
	plans := contourPlans(s, a, costs)
	densities = make([]int, len(plans))
	for i, ids := range plans {
		densities[i] = len(ids)
		rho = max(rho, len(ids))
	}
	return densities, rho
}

// referenceDensities is the per-contour scan contourPlans replaced: collect
// each contour's cells with ContourCells, then count the distinct plans the
// assignment places on them.
func referenceDensities(s *ess.Space, a Assignment, costs []float64) (densities []int, rho int) {
	densities = make([]int, len(costs))
	for i, cc := range costs {
		seen := map[int]bool{}
		for _, ci := range s.Full().ContourCells(cc) {
			seen[a.PlanIDAt(ci)] = true
		}
		densities[i] = len(seen)
		rho = max(rho, len(seen))
	}
	return densities, rho
}

func requireDensitiesMatch(t *testing.T, name string, s *ess.Space, a Assignment, costs []float64) {
	t.Helper()
	got, gotRho := contourDensities(s, a, costs)
	want, wantRho := referenceDensities(s, a, costs)
	if !slices.Equal(got, want) || gotRho != wantRho {
		t.Fatalf("%s: densities %v (rho %d), reference %v (rho %d)", name, got, gotRho, want, wantRho)
	}
}

// planAssignment assigns plans through a function.
type planAssignment func(ci int) int

func (f planAssignment) PlanIDAt(ci int) int { return f(ci) }

// TestContourDensitiesOnPlateausAndTies runs the one-pass densities against
// the reference on synthetic surfaces built to stress the range test:
// plateaus (runs of equal cost along a dimension, so a successor's cost
// equals the cell's), budgets equal to cell costs (so a successor ties with
// the budget), and plan IDs past 64 (a second bitset word).
func TestContourDensitiesOnPlateausAndTies(t *testing.T) {
	base := buildSpace(t, 4)
	root := base.PlanAt(0).Root
	const numPlans = 70
	plans := make([]*plan.Plan, numPlans)
	for i := range plans {
		plans[i] = plan.New(root)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		d := 2 + trial%3
		res := 3 + rng.Intn(4)
		g := ess.NewGrid(d, res, 1e-4)
		// Integer steps of 0, 1 or 2 per grid index and dimension: zero
		// steps make plateaus, and integer costs make many cells share one.
		step := make([][]float64, d)
		for dim := range step {
			step[dim] = make([]float64, res)
			for i := 1; i < res; i++ {
				step[dim][i] = step[dim][i-1] + float64(rng.Intn(3))
			}
		}
		idx := make([]int, d)
		costAt := func(ci int) float64 {
			g.Unflatten(ci, idx)
			c := 1.0
			for dim, i := range idx {
				c += step[dim][i]
			}
			return c
		}
		planOf := make([]int, g.Size())
		for ci := range planOf {
			planOf[ci] = rng.Intn(numPlans)
		}
		s := ess.FromSurface(base.Model, g, plans, costAt, func(ci int) int { return planOf[ci] })

		var ties []float64
		for ci := 0; ci < g.Size(); ci++ {
			ties = append(ties, s.CostAt(ci))
		}
		slices.Sort(ties)
		ties = slices.Compact(ties)
		coarse := planAssignment(func(ci int) int { return planOf[ci] % 3 * 33 })
		for _, costs := range [][]float64{ties, s.ContourCosts(2), s.ContourCosts(1.5)} {
			requireDensitiesMatch(t, "plateau identity", s, s, costs)
			requireDensitiesMatch(t, "plateau coarse", s, coarse, costs)
		}
	}
}

// TestContourDensitiesMatchesReferenceOnSuite covers suite spaces of three
// to six dimensions at contour ratios 2 and 1.5, under the identity
// assignment and the λ=0.2 reduced diagram whose ρ sets PlanBouquet's
// guarantee. (The root package pins the guarantee of every listed query.)
func TestContourDensitiesMatchesReferenceOnSuite(t *testing.T) {
	for _, name := range []string{"3D_Q15", "4D_Q91", "5D_Q84", "6D_Q18"} {
		s := benchmarkSpace(t, name)
		red := Reduce(s, 0.2)
		for _, r := range []float64{2, 1.5} {
			costs := s.ContourCosts(r)
			requireDensitiesMatch(t, name+" identity", s, s, costs)
			requireDensitiesMatch(t, name+" reduced", s, red, costs)
		}
	}
}

func TestContourDensitiesRejectsUnsortedBudgets(t *testing.T) {
	s := buildSpace(t, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("descending budgets did not panic")
		}
	}()
	contourPlans(s, s, []float64{s.MaxCost(), s.MinCost()})
}
