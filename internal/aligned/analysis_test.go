package aligned

import (
	"context"
	"math"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/ess"
	"repro/internal/metrics"
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
	pools := spillPools(s, 0)
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
				if _, d, ok := s.PlanAt(ci).SpillTarget(s.Query.EPPs, 0); ok && d == dim {
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

// referenceReplacement is inducedReplacement with every candidate costed by
// Model.Eval: the minimum-penalty pool plan at the contour cells whose
// leader coordinate is coord.
func referenceReplacement(st *contourState, leader, coord int) (spillbound.Spill, bool) {
	s, g := st.s, st.s.Grid
	best := spillbound.Spill{Dim: leader, Penalty: math.Inf(1)}
	for _, ci := range st.cells {
		if g.Coord(ci, leader) != coord {
			continue
		}
		loc := g.Location(ci)
		opt := s.CostAt(ci)
		for _, id := range st.pools[leader] {
			c := s.Model.Eval(s.Plans()[id], loc)
			if pen := c / opt; pen < best.Penalty {
				best = spillbound.Spill{PlanID: id, Dim: leader, Budget: c, Penalty: pen}
			}
		}
	}
	return best, !math.IsInf(best.Penalty, 1)
}

// TestInducedReplacementMatchesEval plans every contour of a cold 400-location
// AlignedBound sweep of 4D_Q91 a second time and requires each induced
// replacement the partition search prices through the Space's PlanSet to
// pick the plan, budget and penalty, bit for bit, that Model.Eval picks.
func TestInducedReplacementMatchesEval(t *testing.T) {
	sp, ok := workload.ByName("4D_Q91")
	if !ok {
		t.Fatal("4D_Q91 missing from the suite")
	}
	q, err := sp.Build(catalog.TPCDS(100))
	if err != nil {
		t.Fatal(err)
	}
	m := cost.MustNewModel(q, cost.PostgresLike())
	s, err := ess.BuildParallelContext(context.Background(), m, ess.NewGrid(q.D(), sp.GridRes, sp.GridLo), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	base := partitionPlanner(s)
	contours, replacements := 0, 0
	planner := spillbound.Planner{Slot: base.Slot, Plan: func(c spillbound.Contour) spillbound.Plan {
		contours++
		st := newContourState(s, c.Cells, c.Learnt)
		st.bestPartition(c.Free)
		for key, got := range st.indMemo {
			want, feasible := referenceReplacement(st, key[0], key[1])
			replacements++
			if got.feasible != feasible {
				t.Errorf("contour %g leader %d coord %d: feasible %v, Model.Eval %v", c.Cost, key[0], key[1], got.feasible, feasible)
			}
			if !feasible {
				continue
			}
			g := got.exec.Spill
			if g.PlanID != want.PlanID || math.Float64bits(g.Budget) != math.Float64bits(want.Budget) ||
				math.Float64bits(g.Penalty) != math.Float64bits(want.Penalty) {
				t.Errorf("contour %g leader %d coord %d: PlanSet picks plan %d budget %v penalty %v, Model.Eval plan %d budget %v penalty %v",
					c.Cost, key[0], key[1], g.PlanID, g.Budget, g.Penalty, want.PlanID, want.Budget, want.Penalty)
			}
		}
		return base.Plan(c)
	}}
	_, err = metrics.SweepContext(context.Background(), s, func(truth cost.Location) float64 {
		out, err := spillbound.Drive(context.Background(), s, ess.CostDoublingRatio, nil, planner, engine.New(m, truth))
		if err != nil {
			t.Fatal(err)
		}
		return out.TotalCost
	}, metrics.SweepOptions{MaxLocations: 400, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if replacements == 0 {
		t.Fatalf("%d planned contours priced no induced replacement", contours)
	}
	t.Logf("%d planned contours, %d induced replacements", contours, replacements)
}
