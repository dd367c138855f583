package aligned

import (
	"context"
	"math"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/ess"
	"repro/internal/spillbound"
	"repro/internal/sqlmini"
)

func testCatalog() *catalog.Catalog {
	c := catalog.New("test")
	c.MustAddTable(&catalog.Table{
		Name: "part", Rows: 20000, RowBytes: 100,
		Columns: []catalog.Column{
			{Name: "p_partkey", Distinct: 20000, Min: 1, Max: 20000},
		},
	})
	c.MustAddTable(&catalog.Table{
		Name: "lineitem", Rows: 600000, RowBytes: 120,
		Columns: []catalog.Column{
			{Name: "l_partkey", Distinct: 20000, Min: 1, Max: 20000},
			{Name: "l_orderkey", Distinct: 150000, Min: 1, Max: 150000},
			{Name: "l_suppkey", Distinct: 1000, Min: 1, Max: 1000},
		},
	})
	c.MustAddTable(&catalog.Table{
		Name: "orders", Rows: 150000, RowBytes: 80,
		Columns: []catalog.Column{
			{Name: "o_orderkey", Distinct: 150000, Min: 1, Max: 150000},
		},
	})
	c.MustAddTable(&catalog.Table{
		Name: "supplier", Rows: 1000, RowBytes: 60,
		Columns: []catalog.Column{
			{Name: "s_suppkey", Distinct: 1000, Min: 1, Max: 1000},
		},
	})
	return c
}

func build2D(t *testing.T, res int) *ess.Space {
	t.Helper()
	q := sqlmini.MustParse(testCatalog(), `
		SELECT * FROM part p, lineitem l, orders o
		WHERE p.p_partkey = l.l_partkey AND l.l_orderkey = o.o_orderkey`)
	if err := q.MarkEPPs("p.p_partkey = l.l_partkey", "l.l_orderkey = o.o_orderkey"); err != nil {
		t.Fatal(err)
	}
	m := cost.MustNewModel(q, cost.PostgresLike())
	s, err := ess.BuildParallelContext(context.Background(), m, ess.NewGrid(2, res, 1e-6), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func build3D(t *testing.T, res int) *ess.Space {
	t.Helper()
	q := sqlmini.MustParse(testCatalog(), `
		SELECT * FROM part p, lineitem l, orders o, supplier s
		WHERE p.p_partkey = l.l_partkey AND l.l_orderkey = o.o_orderkey
		AND l.l_suppkey = s.s_suppkey`)
	if err := q.MarkEPPs(
		"p.p_partkey = l.l_partkey",
		"l.l_orderkey = o.o_orderkey",
		"l.l_suppkey = s.s_suppkey",
	); err != nil {
		t.Fatal(err)
	}
	m := cost.MustNewModel(q, cost.PostgresLike())
	s, err := ess.BuildParallelContext(context.Background(), m, ess.NewGrid(3, res, 1e-6), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestGuaranteeFormulas(t *testing.T) {
	if GuaranteeLower(4) != 10 {
		t.Errorf("GuaranteeLower(4) = %g", GuaranteeLower(4))
	}
	if GuaranteeUpper(4) != 28 {
		t.Errorf("GuaranteeUpper(4) = %g", GuaranteeUpper(4))
	}
}

func TestRunCompletes(t *testing.T) {
	s := build2D(t, 10)
	r := NewRunner(s)
	for _, truth := range []cost.Location{
		{1e-6, 1e-6}, {1e-3, 1e-5}, {1, 1}, {1e-6, 1}, {0.03, 0.1},
	} {
		e := engine.New(s.Model, truth)
		out := r.Run(e)
		if !out.Completed {
			t.Fatalf("truth %v: did not complete\n%s", truth, out.Trace())
		}
	}
}

// TestMSOWithinUpperBound verifies AlignedBound never exceeds the retained
// D²+3D guarantee, exhaustively over the 2D grid.
func TestMSOWithinUpperBound(t *testing.T) {
	s := build2D(t, 10)
	r := NewRunner(s)
	g := s.Grid
	bound := GuaranteeUpper(2)
	worst := 0.0
	for ci := 0; ci < g.Size(); ci++ {
		truth := g.Location(ci)
		e := engine.New(s.Model, truth)
		out := r.Run(e)
		subOpt := out.TotalCost / s.CostAt(ci)
		if subOpt > worst {
			worst = subOpt
		}
		if subOpt > bound {
			t.Fatalf("truth %v: SubOpt %.2f exceeds %g\n%s", truth, subOpt, bound, out.Trace())
		}
	}
	t.Logf("2D AB empirical MSO = %.2f (range [%g, %g])", worst, GuaranteeLower(2), bound)
}

func TestMSOWithinUpperBound3D(t *testing.T) {
	s := build3D(t, 6)
	r := NewRunner(s)
	g := s.Grid
	bound := GuaranteeUpper(3)
	worst := 0.0
	for ci := 0; ci < g.Size(); ci++ {
		truth := g.Location(ci)
		e := engine.New(s.Model, truth)
		out := r.Run(e)
		subOpt := out.TotalCost / s.CostAt(ci)
		if subOpt > worst {
			worst = subOpt
		}
		if subOpt > bound {
			t.Fatalf("truth %v: SubOpt %.2f exceeds %g\n%s", truth, subOpt, bound, out.Trace())
		}
	}
	t.Logf("3D AB empirical MSO = %.2f (range [%g, %g])", worst, GuaranteeLower(3), bound)
}

// TestPenaltiesRecorded checks that induced executions carry their penalty
// and that π* tracking reports at least the executed parts' penalties.
func TestPenaltiesRecorded(t *testing.T) {
	s := build3D(t, 6)
	r := NewRunner(s)
	e := engine.New(s.Model, cost.Location{1e-3, 1e-2, 1e-4})
	out := r.Run(e)
	for _, x := range out.Executions {
		if x.Dim < 0 {
			continue // 1-D phase
		}
		if x.Penalty < 1-1e-9 {
			t.Errorf("spill execution with penalty %g < 1: %+v", x.Penalty, x)
		}
		if x.Native && math.Abs(x.Penalty-1) > 1e-9 {
			t.Errorf("native execution with penalty %g", x.Penalty)
		}
	}
	if out.MaxPartitionPenalty < 1 && len(out.Executions) > 1 {
		t.Errorf("MaxPartitionPenalty = %g", out.MaxPartitionPenalty)
	}
}

// TestABCompetitiveWithSB: AlignedBound's whole point is improving on
// SpillBound for challenging instances; across the grid its MSO must not be
// dramatically worse, and per the paper's findings we expect it at or below
// SB's MSO on this workload.
func TestABCompetitiveWithSB(t *testing.T) {
	s := build2D(t, 10)
	ab := NewRunner(s)
	sb := spillbound.NewRunner(s)
	g := s.Grid
	worstAB, worstSB := 0.0, 0.0
	for ci := 0; ci < g.Size(); ci++ {
		truth := g.Location(ci)
		oAB := ab.Run(engine.New(s.Model, truth))
		oSB := sb.Run(engine.New(s.Model, truth))
		if so := oAB.TotalCost / s.CostAt(ci); so > worstAB {
			worstAB = so
		}
		if so := oSB.TotalCost / s.CostAt(ci); so > worstSB {
			worstSB = so
		}
	}
	t.Logf("MSOe: AB=%.2f SB=%.2f", worstAB, worstSB)
	if worstAB > worstSB*1.5 {
		t.Errorf("AB MSO %.2f much worse than SB %.2f", worstAB, worstSB)
	}
}

func TestDeterminism(t *testing.T) {
	s := build3D(t, 6)
	r := NewRunner(s)
	truth := cost.Location{1e-4, 1e-3, 1e-2}
	a := r.Run(engine.New(s.Model, truth))
	b := r.Run(engine.New(s.Model, truth))
	if a.Trace() != b.Trace() || a.TotalCost != b.TotalCost {
		t.Error("AlignedBound is not deterministic")
	}
}

func TestAnalyzeAlignment(t *testing.T) {
	s := build2D(t, 10)
	stats := AnalyzeAlignment(s, 2)
	if stats.Contours != len(s.ContourCosts(2)) {
		t.Fatalf("Contours = %d", stats.Contours)
	}
	if len(stats.MinPenalty) != stats.Contours {
		t.Fatalf("MinPenalty len = %d", len(stats.MinPenalty))
	}
	for i, p := range stats.MinPenalty {
		if p < 1-1e-9 {
			t.Errorf("contour %d min penalty %g < 1", i, p)
		}
	}
	native := stats.NativePct()
	if native < 0 || native > 100 {
		t.Errorf("NativePct = %g", native)
	}
	// WithinPct is monotone in lambda and reaches 100 at MaxPenalty (when
	// finite).
	if stats.WithinPct(1.2) > stats.WithinPct(2.0)+1e-9 {
		t.Error("WithinPct not monotone")
	}
	if mp := stats.MaxPenalty(); !math.IsInf(mp, 1) {
		if got := stats.WithinPct(mp); got < 100-1e-6 {
			t.Errorf("WithinPct(MaxPenalty) = %g, want 100", got)
		}
	}
}

func TestAlignmentStatsEdgeCases(t *testing.T) {
	var empty AlignmentStats
	if empty.WithinPct(2) != 0 {
		t.Error("empty stats WithinPct should be 0")
	}
	if empty.MaxPenalty() != 0 {
		t.Error("empty stats MaxPenalty should be 0")
	}
}
