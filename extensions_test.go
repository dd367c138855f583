package repro

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/spillbound"
	"repro/internal/telemetry"
)

func TestIdentifyEPPs(t *testing.T) {
	cat := TPCDSCatalog(10)
	epps, err := IdentifyEPPs(cat, paperEQ, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(epps) != 2 {
		t.Fatalf("epps = %v", epps)
	}
	// The identified predicates must be usable directly by NewSession.
	opts := DefaultOptions()
	opts.GridRes = 6
	sess, err := NewSession(cat, paperEQ, epps, opts)
	if err != nil {
		t.Fatalf("NewSession with identified epps: %v", err)
	}
	if sess.D() != 2 {
		t.Errorf("D = %d", sess.D())
	}
	// k <= 0 selects all join predicates.
	all, err := IdentifyEPPs(cat, paperEQ, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 {
		t.Errorf("conservative identification = %v, want all joins of the query", all)
	}
	if _, err := IdentifyEPPs(cat, "SELECT * FROM nope", 1); err == nil {
		t.Error("bad SQL should error")
	}
}

// TestContourRatioHelpers checks the contour-ratio bounds cmd/experiments
// -extra ratio reports (Sec 4.2 remark).
func TestContourRatioHelpers(t *testing.T) {
	if g := spillbound.GuaranteeWithRatio(2, 2); g != 10 {
		t.Errorf("ratio-2 guarantee = %g", g)
	}
	r, b := spillbound.OptimalRatio(2)
	if math.Abs(r-1.8165) > 0.01 || math.Abs(b-9.899) > 0.01 {
		t.Errorf("optimal ratio = %.4f / %.4f, want ≈1.8165 / 9.899", r, b)
	}
}

func TestRunWithCostError(t *testing.T) {
	sess := newTestSession(t)
	truth := Location{0.01, 0.1}
	clean, err := sess.Run(SpillBound, truth)
	if err != nil {
		t.Fatal(err)
	}
	perturbed, err := sess.RunWithCostError(SpillBound, truth, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Inflated bound per Sec 7 (oracle in the perturbed world may be up to
	// (1+δ) cheaper than the model optimum used as denominator).
	bound := sess.Guarantee(SpillBound) * 1.3 * 1.3
	if perturbed.SubOpt > bound {
		t.Errorf("perturbed SubOpt %.2f exceeds inflated bound %.2f", perturbed.SubOpt, bound)
	}
	if perturbed.TotalCost == clean.TotalCost {
		t.Log("note: perturbation happened to leave the trace cost unchanged")
	}
	for _, delta := range []float64{-0.1, math.NaN(), math.Inf(1)} {
		if _, err := sess.RunWithCostError(SpillBound, truth, delta, 1); err == nil {
			t.Errorf("delta %g should error", delta)
		}
	}
}

// renderRunSpillBound pins RenderRun(SpillBound, (0.02, 0.2)) on the test
// session byte for byte.
const renderRunSpillBound = `ESS contour map (29 contours, C_min=6.37e+05, C_max=1.07e+14; bands labelled by covering contour)
'*' = q_run Manhattan profile, 'X' = q_a
    1e+00 |8acfhjlnqs
          |68acfhjXnq
          |468acfh*ln
          |2468acf*jl
    2e-03 |12468a**hj
          |11246**cfh
          |1112**8acf
          |1111*468ac
          |1111*2468a
    1e-06 |*****12468
          +----------
           1e-06 1e+00
           dimension 0 selectivity (log scale) →
`

func TestContourMapAndRenderRun(t *testing.T) {
	sess := newTestSession(t)
	out, err := sess.RenderRun(SpillBound, Location{0.02, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if out != renderRunSpillBound {
		t.Errorf("RenderRun(SpillBound) drifted:\n%s\nwant:\n%s", out, renderRunSpillBound)
	}
	// Every strategy renders: the profile follows its spill executions
	// (none for PlanBouquet, whose path jumps straight to the truth).
	for _, a := range []Algorithm{AlignedBound, PlanBouquet} {
		out, err := sess.RenderRun(a, Location{0.02, 0.2})
		if err != nil || !strings.Contains(out, "X") || !strings.Contains(out, "*") {
			t.Errorf("RenderRun(%v) = %v, missing trace markers:\n%s", a, err, out)
		}
	}
	if _, err := sess.RenderRun(SpillBound, Location{0.5}); err == nil {
		t.Error("dimension mismatch should error")
	}
}

func TestGuaranteeRangeAB(t *testing.T) {
	sess := newTestSession(t)
	lo, hi := sess.GuaranteeRangeAB()
	if lo != 6 || hi != 10 {
		t.Errorf("AB range = [%g, %g], want [6, 10]", lo, hi)
	}
}

func TestRunPhysical(t *testing.T) {
	sess := newTestSession(t)
	const rowCap = 2000
	// Pinned costs, steps and traces of the physical runs.
	spill := []ExecutionStep{
		{Contour: 1, SpillDim: 0, PlanID: 0, Budget: 636697.9015052988, Spent: 178.40507279695112, Completed: true, Learned: 4.929577464788732e-05},
		{Contour: 2, SpillDim: -1, PlanID: 0, Budget: 1.2733958030105976e+06, Spent: 250.26083141762655, Completed: true},
	}
	spillTrace := "IC1: p0|6.367e+05 spill dim 0 → 4.93e-05\nIC2: P0|1.273e+06 ✓\n"
	want := map[Algorithm]struct {
		total float64
		steps []ExecutionStep
		trace string
	}{
		PlanBouquet: {250.26083141762655, []ExecutionStep{
			{Contour: 1, SpillDim: -1, PlanID: 0, Budget: 764037.4818063586, Spent: 250.26083141762655, Completed: true},
		}, "IC1: P0|7.64e+05 ✓\n"},
		SpillBound:   {428.66590421457767, spill, spillTrace},
		AlignedBound: {428.66590421457767, spill, spillTrace},
	}
	const optimal = 249.5858314176414
	for a, w := range want {
		res, err := sess.RunPhysical(a, rowCap)
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		if res.TotalCost != w.total || res.OptimalCost != optimal || res.SubOpt != w.total/optimal {
			t.Errorf("%v: total/optimal/subopt = %v/%v/%v, want %v/%v/%v",
				a, res.TotalCost, res.OptimalCost, res.SubOpt, w.total, optimal, w.total/optimal)
		}
		if !reflect.DeepEqual(res.Steps, w.steps) {
			t.Errorf("%v: steps = %+v, want %+v", a, res.Steps, w.steps)
		}
		if res.Trace != w.trace {
			t.Errorf("%v: trace = %q, want %q", a, res.Trace, w.trace)
		}
		n := len(res.Events)
		if n == 0 || res.Events[0].Kind != telemetry.ContourEnter || res.Events[n-1].Kind != telemetry.Done {
			t.Fatalf("%v: events must run contour_enter … done, got %+v", a, res.Events)
		}
		if res.Trace != telemetry.RenderTrace(res.Events) {
			t.Errorf("%v: Trace is not the rendering of Events", a)
		}
	}
	for _, a := range []Algorithm{Native, "penaltyaware", "nosuch"} {
		if _, err := sess.RunPhysical(a, rowCap); err == nil {
			t.Errorf("physical %v should be rejected", a)
		}
	}
}
