package ess

import (
	"math/rand"
	"testing"

	"repro/internal/plan"
)

// randomMonotoneSpace builds a Space over a random strictly-monotone cost
// surface (independent positive per-dimension increments), exercising the
// contour machinery on geometries far from what the optimizer produces.
func randomMonotoneSpace(t *testing.T, d, res int, rng *rand.Rand) *Space {
	t.Helper()
	base := buildSpace(t, 4) // borrow a valid model for the Space shell
	g := NewGrid(d, res, 1e-4)
	cum := make([][]float64, d)
	for dim := 0; dim < d; dim++ {
		cum[dim] = make([]float64, res)
		acc := 0.0
		for i := 0; i < res; i++ {
			acc += 1 + rng.Float64()*100
			cum[dim][i] = acc
		}
	}
	dummy := plan.New(&plan.Node{Kind: plan.SeqScan, Rel: 0})
	idx := make([]int, d)
	return FromSurface(base.Model, g, []*plan.Plan{dummy},
		func(ci int) float64 {
			g.Unflatten(ci, idx)
			total := 1.0
			for dim, i := range idx {
				total += cum[dim][i]
			}
			return total
		},
		func(ci int) int { return 0 })
}

// TestContourPropertiesOnRandomSurfaces is the property-based version of
// TestContourFrontier: on arbitrary monotone surfaces, every contour must
// be an antichain inside the hypograph that dominates the whole hypograph.
func TestContourPropertiesOnRandomSurfaces(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		d := 2 + rng.Intn(3) // 2..4
		res := 3 + rng.Intn(4)
		s := randomMonotoneSpace(t, d, res, rng)
		g := s.Grid
		full := s.Full()
		// A few random budgets between C_min and C_max.
		for k := 0; k < 4; k++ {
			cc := s.MinCost() + rng.Float64()*(s.MaxCost()-s.MinCost())
			cells := full.ContourCells(cc)
			if len(cells) == 0 {
				t.Fatalf("trial %d: empty contour at %g within [%g,%g]", trial, cc, s.MinCost(), s.MaxCost())
			}
			for _, ci := range cells {
				if s.CostAt(ci) > cc {
					t.Fatalf("trial %d: contour cell above budget", trial)
				}
			}
			for _, a := range cells {
				for _, b := range cells {
					if a != b && g.Location(a).Dominates(g.Location(b)) {
						t.Fatalf("trial %d: contour not an antichain", trial)
					}
				}
			}
			for ci := 0; ci < g.Size(); ci++ {
				if s.CostAt(ci) > cc {
					continue
				}
				covered := false
				loc := g.Location(ci)
				for _, fc := range cells {
					if g.Location(fc).Dominates(loc) {
						covered = true
						break
					}
				}
				if !covered {
					t.Fatalf("trial %d: hypograph cell uncovered", trial)
				}
			}
		}
	}
}

// TestSubspaceContourOnRandomSurfaces checks the restricted-frontier
// properties inside random fixed-coordinate subspaces.
func TestSubspaceContourOnRandomSurfaces(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		d := 3
		res := 4 + rng.Intn(3)
		s := randomMonotoneSpace(t, d, res, rng)
		g := s.Grid
		sub := s.Full().Fix(rng.Intn(d), rng.Intn(res))
		cc := s.CostAt(sub.MaxCorner()) // guarantees a non-empty hypograph
		cells := sub.ContourCells(cc)
		if len(cells) == 0 {
			t.Fatalf("trial %d: empty subspace contour", trial)
		}
		fixedDim := -1
		for dd := 0; dd < d; dd++ {
			if sub.fixed[dd] >= 0 {
				fixedDim = dd
			}
		}
		for _, ci := range cells {
			if g.Coord(ci, fixedDim) != sub.fixed[fixedDim] {
				t.Fatalf("trial %d: contour cell escapes the fixed dimension", trial)
			}
			if s.CostAt(ci) > cc {
				t.Fatalf("trial %d: contour cell above budget", trial)
			}
		}
		// The subspace terminus is always on the final contour.
		found := false
		for _, ci := range cells {
			if ci == sub.MaxCorner() {
				found = true
			}
		}
		if !found {
			t.Fatalf("trial %d: subspace terminus missing from its own-cost contour", trial)
		}
	}
}

// TestContourCostsGeometricOnRandomSurfaces verifies the budget ladder's
// invariants for arbitrary ratios.
func TestContourCostsGeometricOnRandomSurfaces(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 15; trial++ {
		s := randomMonotoneSpace(t, 2, 5, rng)
		ratio := 1.2 + rng.Float64()*2
		costs := s.ContourCosts(ratio)
		if costs[0] != s.MinCost() || costs[len(costs)-1] != s.MaxCost() {
			t.Fatalf("trial %d: ladder endpoints wrong", trial)
		}
		for i := 1; i < len(costs)-1; i++ {
			if r := costs[i] / costs[i-1]; r < ratio-1e-9 || r > ratio+1e-9 {
				t.Fatalf("trial %d: interior step ratio %g != %g", trial, r, ratio)
			}
		}
	}
}
