// Package viz renders 2-dimensional error-prone selectivity spaces as text:
// the iso-cost contour bands of the optimal cost surface and, overlaid, the
// Manhattan discovery profile of a SpillBound run — a textual reproduction
// of the paper's Fig. 7 ("Execution trace for TPC-DS Query 91").
package viz

import (
	"fmt"
	"strings"

	"repro/internal/cost"
	"repro/internal/ess"
	"repro/internal/telemetry"
)

// bandChars maps a contour index to its display rune: digits, then
// lowercase letters.
const bandChars = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"

func bandChar(i int) byte {
	if i < 0 {
		return '?'
	}
	if i >= len(bandChars) {
		return '+'
	}
	return bandChars[i]
}

// Fig7 renders the contour map with a SpillBound run's Manhattan profile
// overlaid: '*' marks the running location's path from the origin, 'X' the
// true location q_a.
func Fig7(s *ess.Space, ratio float64, events []telemetry.Event, truth cost.Location) (string, error) {
	path, err := manhattanPath(s, events, truth)
	if err != nil {
		return "", err
	}
	return render(s, ratio, path, truth), nil
}

// manhattanPath converts a run's spill executions (its SpillExec events)
// into the sequence of grid vertices the running location q_run visits:
// axis-parallel moves from the origin, each spill advancing its dimension
// to the learnt value (paper Sec 4.1.1).
func manhattanPath(s *ess.Space, events []telemetry.Event, truth cost.Location) ([][2]int, error) {
	g := s.Grid
	if g.D != 2 {
		return nil, fmt.Errorf("viz: Manhattan profile needs a 2D space, have %dD", g.D)
	}
	cur := [2]int{0, 0}
	path := [][2]int{cur}
	push := func(p [2]int) {
		if p != path[len(path)-1] {
			path = append(path, p)
		}
	}
	for _, ev := range events {
		if ev.Kind != telemetry.SpillExec || ev.Learned <= 0 {
			continue
		}
		idx := g.CeilIndex(ev.Dim, ev.Learned)
		if idx > cur[ev.Dim] {
			cur[ev.Dim] = idx
			push(cur)
		}
	}
	// The terminal phase implicitly resolves the remaining dimension at
	// the truth.
	for d := 0; d < 2; d++ {
		if idx := g.CeilIndex(d, truth[d]); idx > cur[d] {
			cur[d] = idx
			push(cur)
		}
	}
	return path, nil
}

// render paints the map of a 2D space; path (vertex list) and truth may be
// nil.
func render(s *ess.Space, ratio float64, path [][2]int, truth cost.Location) string {
	g := s.Grid
	costs := s.ContourCosts(ratio)
	nx, ny := g.Res(0), g.Res(1)

	// Base layer: contour bands.
	cells := make([][]byte, ny)
	for y := range cells {
		cells[y] = make([]byte, nx)
		for x := range cells[y] {
			ci := g.Flatten([]int{x, y})
			band := ess.CoveringContour(costs, s.CostAt(ci))
			cells[y][x] = bandChar(band)
		}
	}
	// Trace layer.
	for i := 1; i < len(path); i++ {
		a, b := path[i-1], path[i]
		dx, dy := sign(b[0]-a[0]), sign(b[1]-a[1])
		for p := a; p != b; p[0], p[1] = p[0]+dx, p[1]+dy {
			cells[p[1]][p[0]] = '*'
		}
		cells[b[1]][b[0]] = '*'
	}
	if truth != nil {
		tx, ty := g.CeilIndex(0, truth[0]), g.CeilIndex(1, truth[1])
		cells[ty][tx] = 'X'
	}

	var out strings.Builder
	fmt.Fprintf(&out, "ESS contour map (%d contours, C_min=%.3g, C_max=%.3g; bands labelled by covering contour)\n",
		len(costs), s.MinCost(), s.MaxCost())
	if path != nil {
		out.WriteString("'*' = q_run Manhattan profile, 'X' = q_a\n")
	}
	// Rows top-down (max y first), with sparse Y-axis selectivity labels.
	for y := ny - 1; y >= 0; y-- {
		label := "          "
		if y == ny-1 || y == 0 || y == ny/2 {
			label = fmt.Sprintf("%9.0e ", g.Points[1][y])
		}
		out.WriteString(label)
		out.WriteString("|")
		out.Write(cells[y])
		out.WriteByte('\n')
	}
	out.WriteString(strings.Repeat(" ", 10) + "+" + strings.Repeat("-", nx) + "\n")
	lo := fmt.Sprintf("%.0e", g.Points[0][0])
	hi := fmt.Sprintf("%.0e", g.Points[0][nx-1])
	pad := nx - len(lo) - len(hi)
	if pad < 1 {
		pad = 1
	}
	out.WriteString(strings.Repeat(" ", 11) + lo + strings.Repeat(" ", pad) + hi + "\n")
	out.WriteString(strings.Repeat(" ", 11) + "dimension 0 selectivity (log scale) →\n")
	return out.String()
}

func sign(x int) int {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	}
	return 0
}
