package aligned

import (
	"context"
	"math"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/ess"
	"repro/internal/spillbound"
	"repro/internal/workload"
)

// referenceAnalyzeAlignment is the direct reading of Sec 5.1 that
// AnalyzeAlignment once held: per contour and dimension, the extreme
// coordinate, native alignment there, else the cheapest dim-spilling POSP
// replacement at an extreme cell, costed with Model.Eval.
func referenceAnalyzeAlignment(s *ess.Space, ratio float64) AlignmentStats {
	g := s.Grid
	costs := s.ContourCosts(ratio)
	full := s.Full()
	stats := AlignmentStats{Contours: len(costs)}
	pools := spillPools(s, nil)
	for _, cc := range costs {
		cells := full.ContourCells(cc)
		best := math.Inf(1)
		for dim := 0; dim < g.D; dim++ {
			extCoord := -1
			for _, ci := range cells {
				if c := g.Coord(ci, dim); c > extCoord {
					extCoord = c
				}
			}
			if extCoord < 0 {
				continue
			}
			native := false
			for _, ci := range cells {
				if g.Coord(ci, dim) != extCoord {
					continue
				}
				if d, ok := spillbound.SpillDim(s, s.PlanAt(ci), nil); ok && d == dim {
					native = true
					break
				}
			}
			if native {
				best = 1
				break
			}
			for _, ci := range cells {
				if g.Coord(ci, dim) != extCoord {
					continue
				}
				loc := g.Location(ci)
				opt := s.CostAt(ci)
				for _, id := range pools[dim] {
					if pen := s.Model.Eval(s.Plans()[id], loc) / opt; pen < best {
						best = pen
					}
				}
			}
		}
		stats.MinPenalty = append(stats.MinPenalty, best)
	}
	return stats
}

// TestAnalyzeAlignmentMatchesReference pins Table 2's pricing through the
// planner's partPenalty to the reference loop, bit for bit, on the paper's
// Table 2 queries plus the low-dimensional Q91 variants.
func TestAnalyzeAlignmentMatchesReference(t *testing.T) {
	cat := catalog.TPCDS(100)
	specs := []workload.Spec{workload.Q91(2), workload.Q91(3)}
	for _, name := range []string{"3D_Q96", "4D_Q7", "4D_Q26", "4D_Q91", "5D_Q29", "5D_Q84"} {
		sp, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("unknown query %s", name)
		}
		specs = append(specs, sp)
	}
	for _, sp := range specs {
		t.Run(sp.Name, func(t *testing.T) {
			q, err := sp.Build(cat)
			if err != nil {
				t.Fatal(err)
			}
			m, err := cost.NewModel(q, cost.PostgresLike())
			if err != nil {
				t.Fatal(err)
			}
			s, err := ess.BuildParallelContext(context.Background(), m, ess.NewGrid(q.D(), sp.GridRes, sp.GridLo), 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			got := AnalyzeAlignment(s, ess.CostDoublingRatio)
			want := referenceAnalyzeAlignment(s, ess.CostDoublingRatio)
			if got.Contours != want.Contours || len(got.MinPenalty) != len(want.MinPenalty) {
				t.Fatalf("contours %d/%d, want %d/%d", got.Contours, len(got.MinPenalty), want.Contours, len(want.MinPenalty))
			}
			for i, w := range want.MinPenalty {
				if g := got.MinPenalty[i]; g != w {
					t.Errorf("contour %d: MinPenalty %v, want %v", i, g, w)
				}
			}
		})
	}
}
