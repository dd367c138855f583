// Package ess implements the error-prone selectivity space machinery of the
// paper (Sec 2): the discretized D-dimensional selectivity grid, the
// parametric optimal set of plans (POSP) and optimal cost surface obtained
// by optimizing every grid cell, the doubling iso-cost
// contours realized as dominance frontiers of cost hypographs, and the
// sub-ESS restriction applied as selectivities become fully learnt.
package ess

import (
	"fmt"
	"math"

	"repro/internal/cost"
)

// Grid is the discretization of [lo,1]^D: per dimension, Res log-spaced
// selectivity points ending at 1. Paper Sec 2.1: "In practice, an
// appropriately discretized grid version of [0,1]^D is considered as the
// ESS."
type Grid struct {
	// D is the number of dimensions (epps).
	D int
	// Points[d] lists dimension d's selectivity values in ascending order;
	// the last value is always 1.
	Points [][]float64

	strides []int
	size    int
}

// NewGrid builds a grid with res points per dimension, log-spaced from lo
// up to 1. It panics for d < 1, res < 2 or lo outside (0,1).
func NewGrid(d, res int, lo float64) Grid {
	if d < 1 || res < 2 || lo <= 0 || lo >= 1 {
		panic(fmt.Sprintf("ess: bad grid spec d=%d res=%d lo=%g", d, res, lo))
	}
	pts := make([]float64, res)
	for i := 0; i < res; i++ {
		// lo^(1 - i/(res-1)): lo at i=0, 1 at i=res-1.
		pts[i] = math.Pow(lo, 1-float64(i)/float64(res-1))
	}
	pts[res-1] = 1
	points := make([][]float64, d)
	for j := range points {
		points[j] = pts
	}
	return newGridFromPoints(points)
}

func newGridFromPoints(points [][]float64) Grid {
	g := Grid{D: len(points), Points: points}
	g.strides = make([]int, g.D)
	g.size = 1
	for d := g.D - 1; d >= 0; d-- {
		g.strides[d] = g.size
		g.size *= len(points[d])
	}
	return g
}

// Size returns the number of grid cells.
func (g Grid) Size() int { return g.size }

// Res returns the number of points along dimension d.
func (g Grid) Res(d int) int { return len(g.Points[d]) }

// Flatten converts a per-dimension index vector to a flat cell index.
func (g Grid) Flatten(idx []int) int {
	ci := 0
	for d, i := range idx {
		ci += i * g.strides[d]
	}
	return ci
}

// Unflatten converts a flat cell index into buf (which must have length D)
// and returns buf.
func (g Grid) Unflatten(ci int, buf []int) []int {
	for d := 0; d < g.D; d++ {
		buf[d] = ci / g.strides[d]
		ci %= g.strides[d]
	}
	return buf
}

// Coord returns the grid index along dimension d of the flat cell ci.
func (g Grid) Coord(ci, d int) int { return ci / g.strides[d] % len(g.Points[d]) }

// Location returns the selectivity location of the flat cell ci.
func (g Grid) Location(ci int) cost.Location {
	loc := make(cost.Location, g.D)
	for d := 0; d < g.D; d++ {
		loc[d] = g.Points[d][g.Coord(ci, d)]
	}
	return loc
}

// Step returns the flat index of the cell one grid step up along dimension
// d, and ok=false if ci is already at the maximum.
func (g Grid) Step(ci, d int) (int, bool) {
	if g.Coord(ci, d) == len(g.Points[d])-1 {
		return ci, false
	}
	return ci + g.strides[d], true
}

// CeilIndex returns the smallest grid index along dimension d whose
// selectivity is >= sel (clamped to the last index).
func (g Grid) CeilIndex(d int, sel float64) int {
	pts := g.Points[d]
	for i, v := range pts {
		if v >= sel-1e-15 {
			return i
		}
	}
	return len(pts) - 1
}

// CoveringCell returns the flat index of the grid cell covering loc: per
// dimension, the smallest grid point at or above the coordinate (CeilIndex).
func (g Grid) CoveringCell(loc cost.Location) int {
	ci := 0
	for d := 0; d < g.D; d++ {
		ci += g.CeilIndex(d, loc[d]) * g.strides[d]
	}
	return ci
}

// Origin returns the flat index of the all-minimum cell.
func (g Grid) Origin() int { return 0 }

// Terminus returns the flat index of the all-maximum cell (paper Sec 2.1's
// terminus, selectivity 1 in every dimension).
func (g Grid) Terminus() int { return g.size - 1 }
