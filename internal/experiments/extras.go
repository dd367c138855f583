package experiments

import (
	"fmt"
	"strings"

	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/spillbound"
	"repro/internal/viz"
	"repro/internal/workload"
)

// Fig7 renders the paper's Fig. 7 — the SpillBound execution trace for the
// 2D Q91 instance at q_a = (0.04, 0.1) — as a textual contour map with the
// Manhattan discovery profile overlaid, plus the budgeted execution
// transcript.
func (l *Lab) Fig7() (string, error) {
	sp := workload.Q91(2)
	s, err := l.Space(sp)
	if err != nil {
		return "", err
	}
	truth := cost.Location{0.04, 0.1} // the paper's example location
	r := &spillbound.Runner{Space: s, Ratio: l.Config.Ratio}
	out := r.Run(engine.New(s.Model, truth))
	m, err := viz.Fig7(s, l.Config.Ratio, out, truth)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7 — SpillBound execution trace (%s, q_a=%v)\n\n", sp.Name, truth)
	b.WriteString(m)
	b.WriteString("\nbudgeted executions:\n")
	b.WriteString(out.Trace())
	// The covering grid cell's optimum stands in for the oracle cost (exact
	// when the truth is on the grid).
	fmt.Fprintf(&b, "sub-optimality: %.2f (bound %.0f)\n",
		out.TotalCost/s.CostAt(s.Grid.CoveringCell(truth)), spillbound.Guarantee(2))
	return b.String(), nil
}

// RatioRow is one line of the contour-ratio ablation (Sec 4.2 remark): the
// theoretical bound and the measured MSO under each contour ratio.
type RatioRow struct {
	// Ratio is the geometric contour cost ratio.
	Ratio float64
	// Bound is SpillBound's guarantee D·r²/(r-1) + D(D-1)/2·r.
	Bound float64
	// MSOe is the measured MSO over the sweep.
	MSOe float64
}

// RatioAblation sweeps SpillBound on 2D_Q91 under several contour ratios,
// including the theoretical optimum (≈1.82 at D=2), validating the paper's
// remark that doubling is near-optimal but not ideal for SpillBound.
func (l *Lab) RatioAblation() ([]RatioRow, error) {
	sp := workload.Q91(2)
	s, err := l.Space(sp)
	if err != nil {
		return nil, err
	}
	optR, _ := spillbound.OptimalRatio(sp.D)
	ratios := []float64{1.4, 1.6, optR, 2.0, 2.5, 3.0}
	var rows []RatioRow
	for _, r := range ratios {
		runner := &spillbound.Runner{Space: s, Ratio: r}
		res := l.sweep(s, func(truth cost.Location) float64 {
			return runner.Run(engine.New(s.Model, truth)).TotalCost
		})
		rows = append(rows, RatioRow{
			Ratio: r,
			Bound: spillbound.GuaranteeWithRatio(sp.D, r),
			MSOe:  res.MSO,
		})
	}
	return rows, nil
}

// DeltaRow is one line of the cost-model-error robustness study (Sec 7):
// measured MSO under bounded model error δ against the inflated guarantee.
type DeltaRow struct {
	// Delta is the injected error bound.
	Delta float64
	// InflatedBound is (D²+3D)(1+δ)².
	InflatedBound float64
	// MSOe is the measured MSO (denominator conservatively deflated by
	// (1+δ) since the perturbed-world oracle may be that much cheaper).
	MSOe float64
}

// DeltaRobustness sweeps SpillBound on 2D_Q91 under injected cost-model
// error, validating Sec 7's claim that guarantees carry through modulo
// (1+δ)².
func (l *Lab) DeltaRobustness() ([]DeltaRow, error) {
	sp := workload.Q91(2)
	s, err := l.Space(sp)
	if err != nil {
		return nil, err
	}
	runner := &spillbound.Runner{Space: s, Ratio: l.Config.Ratio}
	var rows []DeltaRow
	for _, delta := range []float64{0, 0.1, 0.3, 0.5} {
		errFn := engine.DeterministicCostError(delta, uint64(l.Config.Seed)+1)
		res := l.sweep(s, func(truth cost.Location) float64 {
			e := engine.New(s.Model, truth)
			e.CostError = errFn
			// Conservative denominator handling: scale the numerator up by
			// (1+δ) instead of tracking the perturbed-world oracle.
			return runner.Run(e).TotalCost * (1 + delta)
		})
		rows = append(rows, DeltaRow{
			Delta:         delta,
			InflatedBound: spillbound.Guarantee(sp.D) * (1 + delta) * (1 + delta),
			MSOe:          res.MSO,
		})
	}
	return rows, nil
}

// CorrelatedRow is one line of the dependent-selectivities study (the
// paper's Sec 9 future work): average sub-optimality under a workload whose
// epp selectivities are jointly log-normal with exchangeable correlation ρ.
type CorrelatedRow struct {
	// Rho is the pairwise correlation of the log-selectivities.
	Rho float64
	// SBASO and ABASO are the workload-weighted average sub-optimalities.
	SBASO, ABASO float64
	// SBMSO is the maximum over the workload's support — still within the
	// structural bound, which holds pointwise regardless of dependence.
	SBMSO float64
}

// CorrelatedWorkload evaluates SpillBound and AlignedBound on 2D_Q91 under
// increasingly correlated workload distributions. The per-instance D²+3D
// guarantee is distribution-free; the experiment shows how the
// *average-case* picture moves when selectivities are dependent.
func (l *Lab) CorrelatedWorkload() ([]CorrelatedRow, error) {
	sp := workload.Q91(2)
	s, err := l.Space(sp)
	if err != nil {
		return nil, err
	}
	// The runs do not depend on the workload: reweight the cached sweeps.
	sbSweep := l.cachedSweep("sb:"+sp.Name, s, l.sbRun(s))
	abSweep, _ := l.abSweep(sp.Name, s)
	var rows []CorrelatedRow
	for _, rho := range []float64{0, 0.5, 0.9} {
		density := metrics.CorrelatedLogNormal(sp.D, -3, 1.5, rho)
		sb := metrics.Reweight(s.Grid, sbSweep, density)
		ab := metrics.Reweight(s.Grid, abSweep, density)
		rows = append(rows, CorrelatedRow{Rho: rho, SBASO: sb.ASO, ABASO: ab.ASO, SBMSO: sb.MSO})
	}
	return rows, nil
}

// RenderCorrelated renders the dependent-selectivities study.
func RenderCorrelated(rows []CorrelatedRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Dependent selectivities (Sec 9 future work, 2D_Q91)\n%8s %10s %10s %10s\n",
		"ρ", "SB ASO", "AB ASO", "SB MSO")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8.2f %10.2f %10.2f %10.2f\n", r.Rho, r.SBASO, r.ABASO, r.SBMSO)
	}
	return b.String()
}

// RenderRatio renders the ratio ablation.
func RenderRatio(rows []RatioRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Contour-ratio ablation (Sec 4.2 remark, 2D_Q91)\n%8s %10s %10s\n", "ratio", "bound", "MSOe")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8.3f %10.2f %10.2f\n", r.Ratio, r.Bound, r.MSOe)
	}
	return b.String()
}

// RenderDelta renders the δ-robustness study.
func RenderDelta(rows []DeltaRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cost-model-error robustness (Sec 7, 2D_Q91)\n%8s %16s %10s\n", "δ", "(D²+3D)(1+δ)²", "MSOe")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8.2f %16.2f %10.2f\n", r.Delta, r.InflatedBound, r.MSOe)
	}
	return b.String()
}
