package experiments

import (
	"fmt"
	"strings"

	"repro/internal/aligned"
	"repro/internal/metrics"
	"repro/internal/spillbound"
	"repro/internal/workload"
)

// GuaranteeRow is one bar pair of Fig. 8/9: the MSO guarantees of
// PlanBouquet (4·(1+λ)·ρ_red, behavioral) and SpillBound (D²+3D,
// structural).
type GuaranteeRow struct {
	// Query is the xD_Qz name.
	Query string
	// D is the epp count.
	D int
	// RhoRed is the max contour plan density after anorexic reduction.
	RhoRed int
	// PB and SB are the two guarantees.
	PB, SB float64
}

// Fig8 computes the MSO guarantee comparison over the full TPC-DS suite
// (paper Fig. 8).
func (l *Lab) Fig8() ([]GuaranteeRow, error) {
	var rows []GuaranteeRow
	for _, sp := range workload.TPCDSQueries() {
		row, err := l.guaranteeRow(sp)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig9 computes the guarantee-vs-dimensionality profile for Q91 with 2–6
// epps (paper Fig. 9).
func (l *Lab) Fig9() ([]GuaranteeRow, error) {
	var rows []GuaranteeRow
	for d := 2; d <= 6; d++ {
		row, err := l.guaranteeRow(workload.Q91(d))
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func (l *Lab) guaranteeRow(sp workload.Spec) (GuaranteeRow, error) {
	s, err := l.Space(sp)
	if err != nil {
		return GuaranteeRow{}, err
	}
	d, err := l.Diagram(sp)
	if err != nil {
		return GuaranteeRow{}, err
	}
	costs := s.ContourCosts(contourRatio)
	return GuaranteeRow{
		Query: sp.Name, D: sp.D, RhoRed: d.Rho(costs),
		PB: d.Guarantee(costs),
		SB: spillbound.Guarantee(sp.D),
	}, nil
}

// EmpiricalRow is one entry of Figs. 10/11/13: a per-query metric for two
// algorithms (MSO_e for Figs. 10/13, ASO for Fig. 11).
type EmpiricalRow struct {
	// Query is the xD_Qz name.
	Query string
	// D is the epp count.
	D int
	// A and B are the two algorithms' metric values (PB/SB for Figs.
	// 10-11, SB/AB for Fig. 13).
	A, B float64
	// Ref is a reference line value where the figure shows one (Fig. 13's
	// 2D+2 lower guarantee); zero otherwise.
	Ref float64
}

// Fig10 computes the empirical MSO comparison of PlanBouquet vs SpillBound
// over the suite (paper Fig. 10).
func (l *Lab) Fig10() ([]EmpiricalRow, error) {
	return l.empirical(func(sp workload.Spec) (float64, float64, float64, error) {
		s, err := l.Space(sp)
		if err != nil {
			return 0, 0, 0, err
		}
		d, err := l.Diagram(sp)
		if err != nil {
			return 0, 0, 0, err
		}
		pb := l.cachedSweep("pb:"+sp.Name, s, l.pbRun(d))
		sb := l.cachedSweep("sb:"+sp.Name, s, l.sbRun(s))
		return pb.MSO, sb.MSO, 0, nil
	})
}

// Fig11 computes the ASO comparison of PlanBouquet vs SpillBound (paper
// Fig. 11).
func (l *Lab) Fig11() ([]EmpiricalRow, error) {
	return l.empirical(func(sp workload.Spec) (float64, float64, float64, error) {
		s, err := l.Space(sp)
		if err != nil {
			return 0, 0, 0, err
		}
		d, err := l.Diagram(sp)
		if err != nil {
			return 0, 0, 0, err
		}
		pb := l.cachedSweep("pb:"+sp.Name, s, l.pbRun(d))
		sb := l.cachedSweep("sb:"+sp.Name, s, l.sbRun(s))
		return pb.ASO, sb.ASO, 0, nil
	})
}

// Fig13 computes the empirical MSO comparison of SpillBound vs AlignedBound
// with the 2D+2 reference line (paper Fig. 13).
func (l *Lab) Fig13() ([]EmpiricalRow, error) {
	return l.empirical(func(sp workload.Spec) (float64, float64, float64, error) {
		s, err := l.Space(sp)
		if err != nil {
			return 0, 0, 0, err
		}
		sb := l.cachedSweep("sb:"+sp.Name, s, l.sbRun(s))
		ab, _ := l.abSweep(sp.Name, s)
		return sb.MSO, ab.MSO, aligned.GuaranteeLower(sp.D), nil
	})
}

func (l *Lab) empirical(f func(workload.Spec) (a, b, ref float64, err error)) ([]EmpiricalRow, error) {
	var rows []EmpiricalRow
	for _, sp := range workload.TPCDSQueries() {
		a, b, ref, err := f(sp)
		if err != nil {
			return nil, err
		}
		rows = append(rows, EmpiricalRow{Query: sp.Name, D: sp.D, A: a, B: b, Ref: ref})
	}
	return rows, nil
}

// Fig12Result is the sub-optimality distribution of Fig. 12: histogram
// buckets (width 5) for PlanBouquet and SpillBound on 4D_Q91, extended
// with AlignedBound's distribution (which the paper defers to its
// technical report).
type Fig12Result struct {
	// Query is the profiled query (paper: 4D_Q91).
	Query string
	// PB, SB and AB are the per-algorithm histograms over the same
	// buckets.
	PB, SB, AB []metrics.Bucket
}

// Fig12 profiles the sub-optimality distribution over the ESS for 4D_Q91
// (paper Fig. 12; bucket width 5), plus AlignedBound's distribution.
func (l *Lab) Fig12() (Fig12Result, error) {
	sp := workload.Q91(4)
	s, err := l.Space(sp)
	if err != nil {
		return Fig12Result{}, err
	}
	d, err := l.Diagram(sp)
	if err != nil {
		return Fig12Result{}, err
	}
	pb := l.cachedSweep("pb:"+sp.Name, s, l.pbRun(d))
	sb := l.cachedSweep("sb:"+sp.Name, s, l.sbRun(s))
	ab, _ := l.abSweep(sp.Name, s)
	const width, buckets = 5.0, 8
	return Fig12Result{
		Query: sp.Name,
		PB:    metrics.Histogram(pb.SubOpt, width, buckets),
		SB:    metrics.Histogram(sb.SubOpt, width, buckets),
		AB:    metrics.Histogram(ab.SubOpt, width, buckets),
	}, nil
}

// RenderGuarantees renders Fig. 8/9 rows as an aligned text table.
func RenderGuarantees(title string, rows []GuaranteeRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%-10s %3s %6s %10s %10s\n", title, "query", "D", "ρ_red", "PB MSOg", "SB MSOg")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %3d %6d %10.1f %10.0f\n", r.Query, r.D, r.RhoRed, r.PB, r.SB)
	}
	return b.String()
}

// RenderEmpirical renders Fig. 10/11/13 rows; labels name the two columns.
func RenderEmpirical(title, labelA, labelB string, rows []EmpiricalRow) string {
	var b strings.Builder
	withRef := false
	for _, r := range rows {
		if r.Ref != 0 {
			withRef = true
		}
	}
	fmt.Fprintf(&b, "%s\n%-10s %3s %10s %10s", title, "query", "D", labelA, labelB)
	if withRef {
		fmt.Fprintf(&b, " %8s", "2D+2")
	}
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %3d %10.1f %10.1f", r.Query, r.D, r.A, r.B)
		if withRef {
			fmt.Fprintf(&b, " %8.0f", r.Ref)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// RenderHistogram renders a Fig. 12 histogram pair.
func RenderHistogram(res Fig12Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sub-optimality distribution (%s)\n%-12s %10s %10s %10s\n",
		res.Query, "bucket", "PB %locs", "SB %locs", "AB %locs")
	for i := range res.PB {
		lo, hi := res.PB[i].Lo, res.PB[i].Hi
		label := fmt.Sprintf("[%.0f,%.0f)", lo, hi)
		if i == len(res.PB)-1 {
			label = fmt.Sprintf("[%.0f,inf)", lo)
		}
		ab := 0.0
		if i < len(res.AB) {
			ab = res.AB[i].Pct
		}
		fmt.Fprintf(&b, "%-12s %10.1f %10.1f %10.1f\n", label, res.PB[i].Pct, res.SB[i].Pct, ab)
	}
	return b.String()
}
