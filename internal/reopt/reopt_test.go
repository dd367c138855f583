package reopt

import (
	"context"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/ess"
	"repro/internal/optimizer"
	"repro/internal/spillbound"
	"repro/internal/workload"
)

func buildQ91(t *testing.T) (*optimizer.Optimizer, *ess.Space) {
	t.Helper()
	cat := catalog.TPCDS(10)
	q, err := workload.Q91(2).Build(cat)
	if err != nil {
		t.Fatal(err)
	}
	m := cost.MustNewModel(q, cost.PostgresLike())
	s, err := ess.BuildParallelContext(context.Background(), m, ess.NewGrid(2, 10, 1e-6), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return optimizer.MustNew(m), s
}

func TestRunCompletes(t *testing.T) {
	o, s := buildQ91(t)
	r := NewRunner(o)
	for ci := 0; ci < s.Grid.Size(); ci += 7 {
		truth := s.Grid.Location(ci)
		out := r.Run(truth)
		if !out.Completed {
			t.Fatalf("truth %v: did not complete\n%s", truth, out.Trace())
		}
		if out.TotalCost <= 0 {
			t.Fatalf("truth %v: no cost", truth)
		}
		last := out.Attempts[len(out.Attempts)-1]
		if !last.Completed || last.TriggeredBy != -1 {
			t.Fatalf("truth %v: final attempt inconsistent: %+v", truth, last)
		}
		// At most D+1 attempts (each reopt learns a dimension).
		if len(out.Attempts) > 3 {
			t.Fatalf("truth %v: %d attempts for D=2", truth, len(out.Attempts))
		}
	}
}

func TestReoptimizationHappens(t *testing.T) {
	o, s := buildQ91(t)
	r := NewRunner(o)
	// Far from the tiny estimate, the initial plan should be invalidated
	// somewhere in the grid.
	sawReopt := false
	for ci := 0; ci < s.Grid.Size(); ci++ {
		out := r.Run(s.Grid.Location(ci))
		if len(out.Attempts) > 1 {
			sawReopt = true
			break
		}
	}
	if !sawReopt {
		t.Error("no location triggered reoptimization; checkpoints inert")
	}
}

// TestNoBoundVersusSpillBound is the paper's Sec 8 point made empirical:
// the heuristic baseline has no MSO guarantee — its worst case over the
// ESS exceeds SpillBound's structural bound, while SpillBound stays under
// D²+3D everywhere.
func TestNoBoundVersusSpillBound(t *testing.T) {
	o, s := buildQ91(t)
	pop := NewRunner(o)
	sb := spillbound.NewRunner(s)
	worstPOP, worstSB := 0.0, 0.0
	for ci := 0; ci < s.Grid.Size(); ci++ {
		truth := s.Grid.Location(ci)
		opt := s.CostAt(ci)
		if so := pop.Run(truth).TotalCost / opt; so > worstPOP {
			worstPOP = so
		}
		if so := sb.Run(engine.New(s.Model, truth)).TotalCost / opt; so > worstSB {
			worstSB = so
		}
	}
	t.Logf("MSOe: POP-style %.1f vs SpillBound %.2f (bound 10)", worstPOP, worstSB)
	if worstSB > spillbound.Guarantee(2) {
		t.Errorf("SpillBound exceeded its bound: %.2f", worstSB)
	}
	if worstPOP <= spillbound.Guarantee(2) {
		t.Logf("note: POP stayed under SB's bound on this grid (no guarantee it does)")
	}
}

func TestDeterminism(t *testing.T) {
	o, s := buildQ91(t)
	r := NewRunner(o)
	truth := s.Grid.Location(s.Grid.Size() / 2)
	a, b := r.Run(truth), r.Run(truth)
	if a.Trace() != b.Trace() || a.TotalCost != b.TotalCost {
		t.Error("not deterministic")
	}
}

func TestTraceRendering(t *testing.T) {
	o, s := buildQ91(t)
	out := NewRunner(o).Run(s.Grid.Location(s.Grid.Size() - 1))
	tr := out.Trace()
	if tr == "" || len(out.Attempts) == 0 {
		t.Fatal("empty trace")
	}
}

func TestRioChoosesRobustPlan(t *testing.T) {
	_, s := buildQ91(t)
	rio := NewRioRunner(s)
	id := rio.ChoosePlan()
	if id < 0 || id >= len(s.Plans()) {
		t.Fatalf("plan id %d out of range", id)
	}
	// The corner-robust plan's worst cost over the box must be no worse
	// than the estimate-optimal plan's.
	est := s.Model.EstimateLocation()
	g := s.Grid
	idx := make([]int, g.D)
	for d := range idx {
		idx[d] = g.CeilIndex(d, est[d])
	}
	naiveID := s.PlanIDAt(g.Flatten(idx))
	worst := func(pid int) float64 {
		w := 0.0
		for mask := 0; mask < 4; mask++ {
			c := est.Clone()
			for j := 0; j < 2; j++ {
				if mask&(1<<uint(j)) != 0 {
					c[j] = clampSel(c[j] * rio.BoxFactor)
				} else {
					c[j] = clampSel(c[j] / rio.BoxFactor)
				}
			}
			if v := s.Model.Eval(s.Plans()[pid], c); v > w {
				w = v
			}
		}
		return w
	}
	if worst(id) > worst(naiveID)+1e-9 {
		t.Errorf("robust plan worse over the box than the naive one: %g vs %g", worst(id), worst(naiveID))
	}
}

// TestRioUnboundedOutsideBox: corner-robustness says nothing about
// locations outside the uncertainty box — the worst case over the full ESS
// remains unbounded relative to SpillBound's guarantee.
func TestRioUnboundedOutsideBox(t *testing.T) {
	_, s := buildQ91(t)
	rio := NewRioRunner(s)
	worst := 0.0
	for ci := 0; ci < s.Grid.Size(); ci++ {
		if so := rio.Run(s.Grid.Location(ci)) / s.CostAt(ci); so > worst {
			worst = so
		}
	}
	t.Logf("Rio-style MSOe over the full ESS: %.1f (SB bound: 10)", worst)
	if worst < 1 {
		t.Error("sub-optimality below 1; accounting broken")
	}
}

func TestClampSel(t *testing.T) {
	if clampSel(2) != 1 || clampSel(-1) <= 0 || clampSel(0.5) != 0.5 {
		t.Error("clampSel misbehaves")
	}
}
