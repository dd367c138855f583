package bouquet

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/ess"
	"repro/internal/sqlmini"
	"repro/internal/telemetry"
)

// runCellDerived is the budgeted loop over the whole space with each
// contour's plans derived from its cells (distinctPlans of ContourCells)
// instead of read from the diagram's schedule, under budgets cc·(1+λ).
func runCellDerived(ctx context.Context, d *Diagram, e engine.ContextExecutor, costs []float64, start int) (Outcome, error) {
	full := d.Space.Full()
	return run(ctx, d.Space, d, e, costs, start, full.MaxCorner(), 1+d.Lambda,
		func(i int) []int { return distinctPlans(d, full.ContourCells(costs[i])) })
}

// runRecorded runs the PlanBouquet protocol like Run, under a recorder,
// and returns the outcome with the run's charged executions.
func runRecorded(d *Diagram, e engine.ContextExecutor, ratio float64) (Outcome, []telemetry.Event) {
	rec := telemetry.NewRecorder()
	out, _ := runCellDerived(telemetry.With(context.Background(), rec), d, e, d.Space.ContourCosts(ratio), 0)
	var execs []telemetry.Event
	for _, ev := range rec.Events() {
		if ev.Charged() {
			execs = append(execs, ev)
		}
	}
	return out, execs
}

func buildSpace(t *testing.T, res int) *ess.Space {
	t.Helper()
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
		},
	})
	c.MustAddTable(&catalog.Table{
		Name: "orders", Rows: 150000, RowBytes: 80,
		Columns: []catalog.Column{
			{Name: "o_orderkey", Distinct: 150000, Min: 1, Max: 150000},
		},
	})
	q := sqlmini.MustParse(c, `
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

func TestReduceKeepsNearOptimality(t *testing.T) {
	s := buildSpace(t, 10)
	d := Reduce(s, 0.2)
	if d.PlanCount() > len(s.Plans()) {
		t.Fatalf("reduction grew the plan set: %d > %d", d.PlanCount(), len(s.Plans()))
	}
	g := s.Grid
	for ci := 0; ci < g.Size(); ci++ {
		id := d.PlanIDAt(ci)
		c := s.Model.Eval(s.Plans()[id], g.Location(ci))
		if c > s.CostAt(ci)*1.2*(1+1e-9) {
			t.Fatalf("cell %d: reduced plan cost %g exceeds (1+λ)·optimal %g", ci, c, s.CostAt(ci)*1.2)
		}
	}
}

func TestReduceShrinksPlanCount(t *testing.T) {
	s := buildSpace(t, 10)
	if len(s.Plans()) < 3 {
		t.Skip("POSP too small to exercise reduction")
	}
	d := Reduce(s, 0.2)
	if d.PlanCount() >= len(s.Plans()) {
		t.Errorf("reduction kept all %d plans", len(s.Plans()))
	}
	// A generous threshold should shrink at least as much as a tight one.
	loose := Reduce(s, 1.0)
	if loose.PlanCount() > d.PlanCount() {
		t.Errorf("λ=1.0 kept %d plans, more than λ=0.2's %d", loose.PlanCount(), d.PlanCount())
	}
}

func TestReduceZeroLambdaIsIdentity(t *testing.T) {
	s := buildSpace(t, 6)
	d := Reduce(s, 0)
	for ci := 0; ci < s.Grid.Size(); ci++ {
		if d.PlanIDAt(ci) != s.PlanIDAt(ci) {
			t.Fatalf("cell %d reassigned under λ=0", ci)
		}
	}
	if d.PlanCount() != len(s.Plans()) {
		t.Errorf("λ=0 plan count %d != POSP %d", d.PlanCount(), len(s.Plans()))
	}
}

func TestReductionStats(t *testing.T) {
	s := buildSpace(t, 10)
	d := Reduce(s, 0.2)
	st := d.Stats()
	if st.POSPSize != len(s.Plans()) || st.ReducedSize != d.PlanCount() {
		t.Errorf("stats sizes %d/%d vs %d/%d", st.POSPSize, st.ReducedSize, len(s.Plans()), d.PlanCount())
	}
	if st.MaxInflation > 1.2*(1+1e-9) {
		t.Errorf("MaxInflation %.4f exceeds 1+λ", st.MaxInflation)
	}
	if st.AvgInflation < 1 || st.AvgInflation > st.MaxInflation {
		t.Errorf("AvgInflation %.4f out of [1, max]", st.AvgInflation)
	}
	// Identity reduction has no inflation.
	id := Reduce(s, 0)
	if got := id.Stats(); got.MaxInflation != 1 || got.AvgInflation != 1 {
		t.Errorf("identity reduction inflation = %+v", got)
	}
}

func TestContourDensities(t *testing.T) {
	s := buildSpace(t, 10)
	costs := s.ContourCosts(2)
	dens, rho := contourDensities(s, s, costs)
	if len(dens) != len(costs) {
		t.Fatalf("densities len = %d", len(dens))
	}
	maxSeen := 0
	for _, d := range dens {
		if d < 1 {
			t.Errorf("contour density %d < 1", d)
		}
		if d > maxSeen {
			maxSeen = d
		}
	}
	if rho != maxSeen {
		t.Errorf("rho = %d, max density = %d", rho, maxSeen)
	}
	// Reduction must not increase any contour's density.
	red := Reduce(s, 0.2)
	densRed, rhoRed := contourDensities(s, red, costs)
	_ = densRed
	if rhoRed > rho {
		t.Errorf("reduced rho %d exceeds unreduced %d", rhoRed, rho)
	}
}

func TestGuaranteeFormula(t *testing.T) {
	s := buildSpace(t, 10)
	d := Reduce(s, 0.2)
	costs := s.ContourCosts(2)
	_, rho := contourDensities(s, d, costs)
	if got := d.Rho(costs); got != rho {
		t.Errorf("Rho = %d, want %d", got, rho)
	}
	want := 4 * 1.2 * float64(rho)
	if got := d.Guarantee(costs); math.Abs(got-want) > 1e-9 {
		t.Errorf("Guarantee = %g, want %g", got, want)
	}
}

func TestRunCompletes(t *testing.T) {
	s := buildSpace(t, 10)
	d := Reduce(s, 0.2)
	for _, truth := range []cost.Location{
		{1e-6, 1e-6}, {1e-3, 1e-4}, {1, 1}, {1e-5, 0.9},
	} {
		e := engine.New(s.Model, truth)
		out, steps := runRecorded(d, e, ess.CostDoublingRatio)
		if !out.Completed {
			t.Fatalf("truth %v: bouquet did not complete", truth)
		}
		if out.TotalCost <= 0 {
			t.Errorf("truth %v: total cost %g", truth, out.TotalCost)
		}
		// The final step completes the query at its plan's full cost, and
		// it is the only step that completes.
		last := steps[len(steps)-1]
		if !last.Completed || last.Kind != telemetry.PlanExec || last.Spent != s.Model.Eval(s.Plans()[last.PlanID], truth) {
			t.Errorf("truth %v: final step inconsistent: %+v", truth, last)
		}
		for _, st := range steps[:len(steps)-1] {
			if st.Completed {
				t.Errorf("truth %v: non-final step completed: %+v", truth, st)
			}
		}
	}
}

// TestStepString pins the trace notation of a bouquet step: its plan_exec
// event renders as "IC<contour>: P<plan>|<budget> ✗/✓", one line per step,
// with only the completing step marked ✓.
func TestStepString(t *testing.T) {
	st := telemetry.Event{Kind: telemetry.PlanExec, Contour: 3, Dim: -1, PlanID: 7, Budget: 2048}
	if got := telemetry.RenderTrace([]telemetry.Event{st}); got != "IC3: P7|2048 ✗\n" {
		t.Errorf("String = %q", got)
	}
	st.Completed = true
	if got := telemetry.RenderTrace([]telemetry.Event{st}); got != "IC3: P7|2048 ✓\n" {
		t.Errorf("String = %q", got)
	}

	s := buildSpace(t, 10)
	d := Reduce(s, 0.2)
	truth := cost.Location{1e-3, 1e-4}
	_, steps := runRecorded(d, engine.New(s.Model, truth), ess.CostDoublingRatio)
	lines := strings.Split(strings.TrimSuffix(telemetry.RenderTrace(steps), "\n"), "\n")
	if len(lines) != len(steps) {
		t.Fatalf("%d lines for %d steps:\n%s", len(lines), len(steps), strings.Join(lines, "\n"))
	}
	for i, st := range steps {
		prefix := fmt.Sprintf("IC%d: P%d|", st.Contour, st.PlanID)
		mark := "✗"
		if i == len(steps)-1 {
			mark = "✓"
		}
		if !strings.HasPrefix(lines[i], prefix) || !strings.HasSuffix(lines[i], " "+mark) {
			t.Errorf("step %d: line %q, want prefix %q and mark %s", i, lines[i], prefix, mark)
		}
	}
}

// TestRunRespectsGuarantee verifies the bouquet's MSO bound empirically over
// the whole grid: SubOpt(q_a) <= 4(1+λ)ρ for every q_a.
func TestRunRespectsGuarantee(t *testing.T) {
	s := buildSpace(t, 10)
	d := Reduce(s, 0.2)
	costs := s.ContourCosts(2)
	bound := d.Guarantee(costs)
	g := s.Grid
	worst := 0.0
	for ci := 0; ci < g.Size(); ci++ {
		truth := g.Location(ci)
		e := engine.New(s.Model, truth)
		out := Run(d, e, 2)
		subOpt := out.TotalCost / s.CostAt(ci)
		if subOpt > worst {
			worst = subOpt
		}
	}
	if worst > bound {
		t.Errorf("empirical MSO %g exceeds guarantee %g", worst, bound)
	}
	if worst < 1 {
		t.Errorf("MSO %g below 1 — accounting is broken", worst)
	}
}

func TestBudgetsDoubleAcrossContours(t *testing.T) {
	s := buildSpace(t, 10)
	d := Reduce(s, 0.2)
	e := engine.New(s.Model, cost.Location{0.5, 0.5})
	_, steps := runRecorded(d, e, 2)
	for i := 1; i < len(steps); i++ {
		prev, cur := steps[i-1], steps[i]
		if cur.Contour == prev.Contour && cur.Budget != prev.Budget {
			t.Errorf("same contour, different budgets: %v vs %v", prev, cur)
		}
		if cur.Contour < prev.Contour {
			t.Errorf("contour went backwards: %v after %v", cur, prev)
		}
	}
}

func TestRunSubspace1D(t *testing.T) {
	s := buildSpace(t, 10)
	truth := cost.Location{s.Grid.Points[0][4], 0.3}
	e := engine.New(s.Model, truth)
	sub := s.Full().Fix(0, 4) // dimension 0 fully learnt
	costs := s.ContourCosts(2)
	rec := telemetry.NewRecorder()
	out, err := RunSubspaceContext(telemetry.With(context.Background(), rec), s, e, costs, 2, sub)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Completed {
		t.Fatal("1D subspace run did not complete")
	}
	for _, st := range rec.Events() {
		// Event contours are 1-based: starting contour index 2 is IC3.
		if st.Charged() && st.Contour < 3 {
			t.Errorf("step before the starting contour: %+v", st)
		}
	}
}
