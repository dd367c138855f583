package spillbound

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/telemetry"
)

func TestGuaranteeWithRatioReducesToTheorem(t *testing.T) {
	for d := 1; d <= 8; d++ {
		if got, want := GuaranteeWithRatio(d, 2), Guarantee(d); math.Abs(got-want) > 1e-9 {
			t.Errorf("D=%d: GuaranteeWithRatio(2) = %g, want %g", d, got, want)
		}
	}
}

// TestOptimalRatio2D reproduces the paper's Sec 4.2 remark: "a factor of
// 1.8 improves SpillBound's MSO guarantee from 10 to 9.9 in the 2D case".
func TestOptimalRatio2D(t *testing.T) {
	r, b := OptimalRatio(2)
	if math.Abs(r-1.8165) > 0.01 {
		t.Errorf("optimal 2D ratio = %.4f, want ≈1.8165", r)
	}
	if math.Abs(b-9.899) > 0.01 {
		t.Errorf("optimal 2D bound = %.4f, want ≈9.899", b)
	}
	if approx := GuaranteeWithRatio(2, 1.8); approx > 9.91 || approx < 9.89 {
		t.Errorf("bound at r=1.8 = %.4f, want ≈9.9", approx)
	}
}

// TestMarginalImprovementAtHigherD checks the remark's second half: "only
// marginal improvements are obtained with these ideal factors for the ESS
// dimensionalities considered in our study" (D up to 6).
func TestMarginalImprovementAtHigherD(t *testing.T) {
	for d := 2; d <= 6; d++ {
		_, opt := OptimalRatio(d)
		std := Guarantee(d)
		gain := (std - opt) / std
		if opt > std+1e-9 {
			t.Errorf("D=%d: optimal bound %g worse than doubling %g", d, opt, std)
		}
		if gain > 0.10 {
			t.Errorf("D=%d: gain %.1f%% is not marginal", d, gain*100)
		}
	}
}

func TestGuaranteeWithRatioUnimodal(t *testing.T) {
	// Sanity: the bound blows up toward r→1⁺ and grows for large r, and
	// the ternary-search optimum beats nearby ratios.
	for d := 2; d <= 6; d++ {
		rStar, bStar := OptimalRatio(d)
		for _, dr := range []float64{-0.3, -0.1, 0.1, 0.3} {
			r := rStar + dr
			if r <= 1 {
				continue
			}
			if GuaranteeWithRatio(d, r) < bStar-1e-9 {
				t.Errorf("D=%d: r=%.3f beats the reported optimum %.3f", d, r, rStar)
			}
		}
	}
}

func TestGuaranteeWithRatioQuick(t *testing.T) {
	f := func(du uint8, ru uint16) bool {
		d := int(du%8) + 1
		r := 1.05 + float64(ru)/65535*3 // (1.05, 4.05)
		b := GuaranteeWithRatio(d, r)
		return b > 0 && !math.IsInf(b, 0) && !math.IsNaN(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGuaranteeWithRatioPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ratio <= 1 should panic")
		}
	}()
	GuaranteeWithRatio(2, 1)
}

// TestRunWithNonDoublingRatio executes SpillBound under r=1.8 and verifies
// the generalized bound holds empirically, exhaustively over the 2D grid.
func TestRunWithNonDoublingRatio(t *testing.T) {
	s := build2D(t, 10)
	r := &Runner{Space: s, Ratio: 1.8}
	g := s.Grid
	bound := GuaranteeWithRatio(2, 1.8)
	worst := 0.0
	for ci := 0; ci < g.Size(); ci++ {
		truth := g.Location(ci)
		e := engine.New(s.Model, truth)
		out, events := run(r, e)
		if !out.Completed {
			t.Fatalf("truth %v: did not complete", truth)
		}
		so := out.TotalCost / s.CostAt(ci)
		if so > worst {
			worst = so
		}
		if so > bound {
			t.Fatalf("truth %v: SubOpt %.2f exceeds r=1.8 bound %.2f\n%s", truth, so, bound, telemetry.RenderTrace(events))
		}
	}
	t.Logf("2D MSOe at r=1.8: %.2f (bound %.2f)", worst, bound)
}

func TestRatioAffectsContourCount(t *testing.T) {
	s := build2D(t, 10)
	if len(s.ContourCosts(1.5)) <= len(s.ContourCosts(2.0)) {
		t.Error("smaller ratio should produce more contours")
	}
	_ = cost.Location{} // keep import for symmetry with sibling tests
}
