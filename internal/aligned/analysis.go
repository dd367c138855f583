package aligned

import (
	"math"

	"repro/internal/ess"
)

// AlignmentStats summarizes how cheaply contour alignment (Sec 3.3) can be
// enforced across a query's contours — the data behind paper Table 2.
type AlignmentStats struct {
	// Contours is the number of contours analyzed.
	Contours int
	// MinPenalty[i] is contour i's cheapest alignment penalty: 1 when the
	// contour is natively aligned along some dimension, the minimum plan
	// replacement cost ratio otherwise, +Inf if unalignable.
	MinPenalty []float64
}

// NativePct returns the percentage of contours aligned without any
// replacement (the "Original" column of Table 2).
func (a AlignmentStats) NativePct() float64 { return a.WithinPct(1) }

// WithinPct returns the percentage of contours that are aligned when
// replacement plans may incur penalty at most lambda.
func (a AlignmentStats) WithinPct(lambda float64) float64 {
	if a.Contours == 0 {
		return 0
	}
	n := 0
	for _, p := range a.MinPenalty {
		if p <= lambda+1e-9 {
			n++
		}
	}
	return 100 * float64(n) / float64(a.Contours)
}

// MaxPenalty returns the penalty needed for every contour to satisfy
// alignment (the "Max λ" column of Table 2).
func (a AlignmentStats) MaxPenalty() float64 {
	max := 0.0
	for _, p := range a.MinPenalty {
		if p > max {
			max = p
		}
	}
	return max
}

// AnalyzeAlignment computes per-contour alignment penalties for the space's
// doubling contours: for each contour, the cheapest way — over all
// dimensions j — to have an extreme location along j hold a plan that
// spills on j, natively or by minimum-penalty replacement (Sec 5.1). It
// prices each dimension exactly as AlignedBound's planner does, as the
// penalty of the part holding every dimension led by j, with nothing
// learnt.
func AnalyzeAlignment(s *ess.Space, ratio float64) AlignmentStats {
	costs := s.ContourCosts(ratio)
	full := s.Full()
	all := 1<<uint(s.Grid.D) - 1
	stats := AlignmentStats{Contours: len(costs)}
	for _, cc := range costs {
		st := newContourState(s, full.ContourCells(cc), 0)
		best := math.Inf(1)
		for dim := 0; dim < s.Grid.D; dim++ {
			pe, ok := st.partPenalty(all, dim)
			if !ok || pe.empty {
				continue
			}
			if pe.Native {
				// Native alignment along any dimension wins outright, even
				// over an induced penalty below 1.
				best = 1
				break
			}
			if pe.Penalty < best {
				best = pe.Penalty
			}
		}
		stats.MinPenalty = append(stats.MinPenalty, best)
	}
	return stats
}
