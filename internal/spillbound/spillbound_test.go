package spillbound

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/ess"
	"repro/internal/sqlmini"
	"repro/internal/telemetry"
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

func TestGuaranteeFormula(t *testing.T) {
	cases := map[int]float64{1: 4, 2: 10, 3: 18, 4: 28, 5: 40, 6: 54}
	for d, want := range cases {
		if got := Guarantee(d); got != want {
			t.Errorf("Guarantee(%d) = %g, want %g", d, got, want)
		}
	}
}

func TestRunCompletes(t *testing.T) {
	s := build2D(t, 10)
	r := NewRunner(s)
	for _, truth := range []cost.Location{
		{1e-6, 1e-6}, {1e-3, 1e-5}, {1, 1}, {1e-6, 1}, {0.03, 0.1},
	} {
		e := engine.New(s.Model, truth)
		out, events := run(r, e)
		if !out.Completed {
			t.Fatalf("truth %v: did not complete\n%s", truth, telemetry.RenderTrace(events))
		}
		if out.TotalCost <= 0 {
			t.Errorf("truth %v: non-positive cost", truth)
		}
	}
}

// TestExecutionString pins the trace notation of SpillBound's executions:
// spill-mode lines name the plan in lowercase with the spilled dimension, a
// repeat is tagged, and a regular execution is "IC<contour>: P<plan>|<budget> ✓".
func TestExecutionString(t *testing.T) {
	render := func(ev telemetry.Event) string { return telemetry.RenderTrace([]telemetry.Event{ev}) }
	x := telemetry.Event{Kind: telemetry.SpillExec, Contour: 2, Dim: 0, PlanID: 6, Budget: 4, Learned: 8e-4}
	if s := render(x); !strings.Contains(s, "p6") || !strings.Contains(s, "IC2") {
		t.Errorf("spill String = %q", s)
	}
	x.Repeat = true
	if s := render(x); !strings.Contains(s, "repeat") {
		t.Errorf("repeat String = %q", s)
	}
	reg := telemetry.Event{Kind: telemetry.PlanExec, Contour: 1, Dim: -1, PlanID: 2, Budget: 10, Completed: true}
	if s := render(reg); !strings.Contains(s, "P2") || !strings.Contains(s, "✓") {
		t.Errorf("regular String = %q", s)
	}

	// The events a run records render the same way.
	s := build2D(t, 10)
	_, events := run(NewRunner(s), engine.New(s.Model, cost.Location{0.03, 0.1}))
	sawSpill := false
	for _, ev := range events {
		line := render(ev)
		switch ev.Kind {
		case telemetry.SpillExec:
			sawSpill = true
			if !strings.HasPrefix(line, fmt.Sprintf("IC%d: p%d|", ev.Contour, ev.PlanID)) ||
				!strings.Contains(line, fmt.Sprintf("spill dim %d", ev.Dim)) {
				t.Errorf("spill line %q for %+v", line, ev)
			}
		case telemetry.PlanExec:
			mark := "✗"
			if ev.Completed {
				mark = "✓"
			}
			if !strings.HasPrefix(line, fmt.Sprintf("IC%d: P%d|", ev.Contour, ev.PlanID)) ||
				!strings.HasSuffix(line, " "+mark+"\n") {
				t.Errorf("regular line %q for %+v", line, ev)
			}
		}
	}
	if last := events[len(events)-1]; last.Kind != telemetry.PlanExec || !last.Completed {
		t.Errorf("run did not end on a completing regular execution: %+v", last)
	}
	if !sawSpill {
		t.Errorf("run recorded no spill execution:\n%s", telemetry.RenderTrace(events))
	}
}

// TestMSOWithinStructuralBound is the paper's headline claim: for every
// true location in the ESS, SubOpt <= D²+3D (Theorem 4.5), here verified
// exhaustively over the grid for D=2 (bound 10).
func TestMSOWithinStructuralBound(t *testing.T) {
	s := build2D(t, 10)
	r := NewRunner(s)
	g := s.Grid
	bound := Guarantee(2)
	worst := 0.0
	for ci := 0; ci < g.Size(); ci++ {
		truth := g.Location(ci)
		e := engine.New(s.Model, truth)
		out, events := run(r, e)
		subOpt := out.TotalCost / s.CostAt(ci)
		if subOpt > worst {
			worst = subOpt
		}
		if subOpt > bound {
			t.Fatalf("truth %v: SubOpt %.2f exceeds D²+3D = %g\n%s",
				truth, subOpt, bound, telemetry.RenderTrace(events))
		}
	}
	t.Logf("2D empirical MSO = %.2f (bound %g)", worst, bound)
	if worst < 1 {
		t.Error("MSO below 1 — accounting broken")
	}
}

func TestMSOWithinStructuralBound3D(t *testing.T) {
	s := build3D(t, 6)
	r := NewRunner(s)
	g := s.Grid
	bound := Guarantee(3)
	for ci := 0; ci < g.Size(); ci++ {
		truth := g.Location(ci)
		e := engine.New(s.Model, truth)
		out, events := run(r, e)
		subOpt := out.TotalCost / s.CostAt(ci)
		if subOpt > bound {
			t.Fatalf("truth %v: SubOpt %.2f exceeds D²+3D = %g\n%s",
				truth, subOpt, bound, telemetry.RenderTrace(events))
		}
	}
}

// TestCDIExecution checks contour-density-independent execution: within one
// visit of a contour (between learning events), at most one spill per free
// dimension is issued — i.e., per contour the number of fresh spill
// executions never exceeds D (Lemma 4.4's fresh-execution bound).
func TestCDIExecution(t *testing.T) {
	s := build3D(t, 6)
	r := NewRunner(s)
	g := s.Grid
	for ci := 0; ci < g.Size(); ci += 3 {
		truth := g.Location(ci)
		e := engine.New(s.Model, truth)
		_, events := run(r, e)
		fresh := map[int]int{}
		repeats := 0
		for _, x := range Executions(events) {
			if x.Dim < 0 {
				continue
			}
			if x.Repeat {
				repeats++
			} else {
				fresh[x.Contour]++
			}
		}
		for contour, n := range fresh {
			if n > 3 {
				t.Fatalf("truth %v: contour %d has %d fresh spills (> D=3)\n%s",
					truth, contour, n, telemetry.RenderTrace(events))
			}
		}
		if repeats > 3 { // D(D-1)/2 = 3 for D=3
			t.Fatalf("truth %v: %d repeat executions (> D(D-1)/2 = 3)\n%s",
				truth, repeats, telemetry.RenderTrace(events))
		}
	}
}

// TestLemma41ExecutionCounts verifies Lemma 4.1 for 2D-SpillBound: at most
// two plans are executed from each explored contour, except for at most one
// contour in which at most three plans are executed (the contour where a
// selectivity is fully learnt and the 1-D PlanBouquet takes over).
func TestLemma41ExecutionCounts(t *testing.T) {
	s := build2D(t, 10)
	r := NewRunner(s)
	g := s.Grid
	for ci := 0; ci < g.Size(); ci++ {
		truth := g.Location(ci)
		_, events := run(r, engine.New(s.Model, truth))
		perContour := map[int]int{}
		for _, x := range Executions(events) {
			perContour[x.Contour]++
		}
		three := 0
		for contour, n := range perContour {
			if n > 3 {
				t.Fatalf("truth %v: contour %d has %d executions (>3)\n%s",
					truth, contour, n, telemetry.RenderTrace(events))
			}
			if n == 3 {
				three++
			}
		}
		if three > 1 {
			t.Fatalf("truth %v: %d contours with three executions (Lemma 4.1 allows one)\n%s",
				truth, three, telemetry.RenderTrace(events))
		}
	}
}

func TestTerminal1DPhaseIsRegularMode(t *testing.T) {
	s := build2D(t, 10)
	r := NewRunner(s)
	e := engine.New(s.Model, cost.Location{0.04, 0.1})
	_, events := run(r, e)
	sawSpill, saw1D := false, false
	for _, x := range Executions(events) {
		if x.Dim >= 0 {
			sawSpill = true
			if saw1D {
				t.Error("spill execution after the 1-D phase began")
			}
		} else {
			saw1D = true
		}
	}
	if !sawSpill || !saw1D {
		t.Errorf("expected both phases: spill=%v 1D=%v\n%s", sawSpill, saw1D, telemetry.RenderTrace(events))
	}
	// The final execution completes the query in regular mode.
	execs := Executions(events)
	last := execs[len(execs)-1]
	if last.Dim != -1 || !last.Completed {
		t.Errorf("last execution should be a completing regular run: %+v", last)
	}
}

func TestContoursNondecreasing(t *testing.T) {
	s := build3D(t, 6)
	r := NewRunner(s)
	e := engine.New(s.Model, cost.Location{1e-3, 1e-3, 1e-2})
	_, events := run(r, e)
	prev := 0
	for _, x := range Executions(events) {
		if x.Contour < prev {
			t.Fatalf("contour decreased: %d after %d\n%s", x.Contour, prev, telemetry.RenderTrace(events))
		}
		prev = x.Contour
	}
}

func TestDeterminism(t *testing.T) {
	s := build2D(t, 10)
	r := NewRunner(s)
	truth := cost.Location{2e-4, 3e-3}
	a, aEvents := run(r, engine.New(s.Model, truth))
	b, bEvents := run(r, engine.New(s.Model, truth))
	if !reflect.DeepEqual(aEvents, bEvents) || a.TotalCost != b.TotalCost {
		t.Error("SpillBound is not deterministic")
	}
}

func build4D(t *testing.T, res int) *ess.Space {
	t.Helper()
	c := testCatalog()
	c.MustAddTable(&catalog.Table{
		Name: "nation", Rows: 25, RowBytes: 30,
		Columns: []catalog.Column{{Name: "n_key", Distinct: 25, Min: 1, Max: 25}},
	})
	q := sqlmini.MustParse(c, `
		SELECT * FROM part p, lineitem l, orders o, supplier s, nation n
		WHERE p.p_partkey = l.l_partkey AND l.l_orderkey = o.o_orderkey
		AND l.l_suppkey = s.s_suppkey AND s.s_suppkey = n.n_key`)
	if err := q.MarkEPPs(
		"p.p_partkey = l.l_partkey",
		"l.l_orderkey = o.o_orderkey",
		"l.l_suppkey = s.s_suppkey",
		"s.s_suppkey = n.n_key",
	); err != nil {
		t.Fatal(err)
	}
	m := cost.MustNewModel(q, cost.PostgresLike())
	s, err := ess.BuildParallelContext(context.Background(), m, ess.NewGrid(4, res, 1e-6), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
