package bouquet

import (
	"context"
	"math"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/ess"
	"repro/internal/sqlmini"
)

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
	dens, rho := ContourDensities(s, s, costs)
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
	densRed, rhoRed := ContourDensities(s, red, costs)
	_ = densRed
	if rhoRed > rho {
		t.Errorf("reduced rho %d exceeds unreduced %d", rhoRed, rho)
	}
}

func TestGuaranteeFormula(t *testing.T) {
	s := buildSpace(t, 10)
	d := Reduce(s, 0.2)
	costs := s.ContourCosts(2)
	_, rho := ContourDensities(s, d, costs)
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
		out := Run(d, e, ess.CostDoublingRatio)
		if !out.Completed {
			t.Fatalf("truth %v: bouquet did not complete", truth)
		}
		if out.TotalCost <= 0 {
			t.Errorf("truth %v: total cost %g", truth, out.TotalCost)
		}
		last := out.Steps[len(out.Steps)-1]
		if !last.Completed || last.PlanID != out.FinalPlanID {
			t.Errorf("truth %v: final step inconsistent: %+v", truth, last)
		}
		// Only the final step completes.
		for _, st := range out.Steps[:len(out.Steps)-1] {
			if st.Completed {
				t.Errorf("truth %v: non-final step completed: %v", truth, st)
			}
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
	out := Run(d, e, 2)
	for i := 1; i < len(out.Steps); i++ {
		prev, cur := out.Steps[i-1], out.Steps[i]
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
	out, err := RunSubspaceContext(context.Background(), s, s, e, costs, 2, sub, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Completed {
		t.Fatal("1D subspace run did not complete")
	}
	for _, st := range out.Steps {
		if st.Contour < 2 {
			t.Errorf("step before the starting contour: %v", st)
		}
	}
}

func TestStepString(t *testing.T) {
	st := Step{Contour: 2, PlanID: 7, Budget: 2048, Completed: false}
	if got := st.String(); got != "IC3: P7|2048 ✗" {
		t.Errorf("String = %q", got)
	}
	st.Completed = true
	if got := st.String(); got != "IC3: P7|2048 ✓" {
		t.Errorf("String = %q", got)
	}
}
