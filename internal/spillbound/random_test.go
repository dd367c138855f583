package spillbound

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/ess"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// TestStructuralBoundOnRandomQueries is the capstone property test of the
// paper's Theorem 4.5: the D²+3D bound is *structural* — it must hold for
// any SPJ query, not just the curated benchmark suite. Random acyclic
// queries over the TPC-DS catalog are drawn, their ESS built on a small
// grid, and SpillBound swept exhaustively; every run must complete within
// the bound.
func TestStructuralBoundOnRandomQueries(t *testing.T) {
	cat := catalog.TPCDS(1)
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 12; trial++ {
		q, err := workload.Random(cat, rng, workload.GenOptions{
			Relations:  2 + rng.Intn(4),
			EPPs:       1 + rng.Intn(3),
			MaxFilters: 2,
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		m, err := cost.NewModel(q, cost.PostgresLike())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		res := []int{0, 0, 10, 6, 4}[q.D()] // per-D grid resolution
		if res == 0 {
			res = 10
		}
		s, err := ess.BuildParallelContext(context.Background(), m, ess.NewGrid(q.D(), res, 1e-6), 1, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		r := NewRunner(s)
		bound := Guarantee(q.D())
		g := s.Grid
		for ci := 0; ci < g.Size(); ci++ {
			truth := g.Location(ci)
			out, events := run(r, engine.New(s.Model, truth))
			if !out.Completed {
				t.Fatalf("trial %d (%s) truth %v: did not complete",
					trial, workload.Describe(q), truth)
			}
			if so := out.TotalCost / s.CostAt(ci); so > bound {
				t.Fatalf("trial %d (%s) truth %v: SubOpt %.2f exceeds D²+3D=%g\n%s",
					trial, workload.Describe(q), truth, so, bound, telemetry.RenderTrace(events))
			}
		}
	}
}
