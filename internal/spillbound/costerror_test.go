package spillbound

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/telemetry"
)

// TestMSOUnderCostModelError validates paper Sec 7: with cost-model errors
// bounded within a δ factor, the MSO guarantee carries through inflated by
// (1+δ)² — i.e. MSO ≤ (D²+3D)(1+δ)². Exhaustive over the 2D grid for
// several δ values and error seeds (the injected factors are log-uniform in
// [1/(1+δ), 1+δ], so the bound applies).
func TestMSOUnderCostModelError(t *testing.T) {
	s := build2D(t, 10)
	r := NewRunner(s)
	g := s.Grid
	for _, delta := range []float64{0.1, 0.3, 0.5} {
		bound := Guarantee(2) * (1 + delta) * (1 + delta)
		for seed := uint64(1); seed <= 3; seed++ {
			errFn := engine.DeterministicCostError(delta, seed)
			worst := 0.0
			for ci := 0; ci < g.Size(); ci++ {
				truth := g.Location(ci)
				e := engine.New(s.Model, truth)
				e.CostError = errFn
				out := r.Run(e)
				if !out.Completed {
					t.Fatalf("δ=%g seed=%d truth %v: did not complete", delta, seed, truth)
				}
				// The oracle in the perturbed world can itself be up to
				// (1+δ) cheaper than the model's optimal cost; comparing
				// against the model optimum is therefore conservative in
				// the denominator and the (1+δ)² inflation absorbs it.
				so := out.TotalCost / (s.CostAt(ci) / (1 + delta))
				if so > worst {
					worst = so
				}
			}
			if worst > bound {
				t.Errorf("δ=%g seed=%d: MSO %.2f exceeds (D²+3D)(1+δ)² = %.2f",
					delta, seed, worst, bound)
			}
			t.Logf("δ=%g seed=%d: MSO %.2f (inflated bound %.2f)", delta, seed, worst, bound)
		}
	}
}

// TestCostErrorExercisesFallbacks makes sure severely pessimistic models —
// where even the final contour's budgets can expire — still complete, via
// the defensive unbudgeted fallbacks if needed, with costs fully accounted.
func TestCostErrorExercisesFallbacks(t *testing.T) {
	s := build2D(t, 8)
	r := NewRunner(s)
	g := s.Grid
	for ci := 0; ci < g.Size(); ci += 3 {
		truth := g.Location(ci)
		e := engine.New(s.Model, truth)
		e.CostError = func(_ *plan.Plan) float64 { return 3.0 } // 3× slower than modeled
		out, events := run(r, e)
		if !out.Completed {
			t.Fatalf("truth %v: severely pessimistic run did not complete\n%s", truth, telemetry.RenderTrace(events))
		}
		if out.TotalCost <= 0 {
			t.Fatalf("truth %v: unaccounted cost", truth)
		}
	}
}
