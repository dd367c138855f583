package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/metrics"
	"repro/internal/native"
	"repro/internal/workload"
)

// SummaryRow is the cross-algorithm synthesis (beyond the paper's figures,
// which compare two algorithms at a time): empirical MSO of the native
// optimizer and the three robust algorithms on one query.
type SummaryRow struct {
	// Query is the xD_Qz name.
	Query string
	// D is the epp count.
	D int
	// Native is the native optimizer's MSO over (estimate, actual) pairs
	// (Eq. 2), possibly stride-subsampled on large grids.
	Native float64
	// PB, SB, AB are the robust algorithms' empirical MSOs.
	PB, SB, AB float64
}

// Summary computes the four-way comparison across the suite.
func (l *Lab) Summary() ([]SummaryRow, error) {
	var rows []SummaryRow
	for _, sp := range workload.TPCDSQueries() {
		s, err := l.Space(sp)
		if err != nil {
			return nil, err
		}
		d, err := l.Diagram(sp)
		if err != nil {
			return nil, err
		}
		stride := 1
		if size := s.Grid.Size(); size > 1024 {
			stride = size / 1024
		}
		pb := l.cachedSweep("pb:"+sp.Name, s, l.pbRun(d))
		sb := l.cachedSweep("sb:"+sp.Name, s, l.sbRun(s))
		ab, _ := l.abSweep(sp.Name, s)
		rows = append(rows, SummaryRow{
			Query: sp.Name, D: sp.D,
			Native: native.MSO(s, stride),
			PB:     pb.MSO, SB: sb.MSO, AB: ab.MSO,
		})
	}
	return rows, nil
}

// RenderSummary renders the four-way table.
func RenderSummary(rows []SummaryRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Empirical MSO, all strategies (synthesis)\n%-10s %3s %10s %10s %10s %10s\n",
		"query", "D", "native", "PB", "SB", "AB")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %3d %10.0f %10.1f %10.1f %10.1f\n",
			r.Query, r.D, r.Native, r.PB, r.SB, r.AB)
	}
	return b.String()
}

// Report bundles every experiment's structured results for machine
// consumption (the -json mode of cmd/experiments).
type Report struct {
	// Config echoes the lab configuration knobs that shape the numbers.
	Config struct {
		Profile      string
		Ratio        float64
		Lambda       float64
		MaxLocations int
		ScaleFactor  float64
	}
	Fig8       []GuaranteeRow
	Fig9       []GuaranteeRow
	Fig10      []EmpiricalRow
	Fig11      []EmpiricalRow
	Fig12      Fig12Result
	Fig13      []EmpiricalRow
	Table2     []Table2Row
	Table3     Table3Result
	Table4     []Table4Row
	Platform   []PlatformRow
	JOB        JOBResult
	Ratio      []RatioRow
	Delta      []DeltaRow
	Correlated []CorrelatedRow
	Estimation []EstimationRow
	Reopt      []ReoptRow
	Lambda     []LambdaRow
	Summary    []SummaryRow
}

// BuildReport runs every experiment and collects the structured results.
func (l *Lab) BuildReport() (*Report, error) {
	var r Report
	r.Config.Profile = paperParams.Name
	r.Config.Ratio = contourRatio
	r.Config.Lambda = reductionLambda
	r.Config.MaxLocations = l.Config.MaxLocations
	r.Config.ScaleFactor = scaleFactor
	var err error
	if r.Fig8, err = l.Fig8(); err != nil {
		return nil, err
	}
	if r.Fig9, err = l.Fig9(); err != nil {
		return nil, err
	}
	if r.Fig10, err = l.Fig10(); err != nil {
		return nil, err
	}
	if r.Fig11, err = l.Fig11(); err != nil {
		return nil, err
	}
	if r.Fig12, err = l.Fig12(); err != nil {
		return nil, err
	}
	if r.Fig13, err = l.Fig13(); err != nil {
		return nil, err
	}
	if r.Table2, err = l.Table2(); err != nil {
		return nil, err
	}
	if r.Table3, err = l.Table3(); err != nil {
		return nil, err
	}
	if r.Table4, err = l.Table4(); err != nil {
		return nil, err
	}
	if r.Platform, err = l.PlatformShift(); err != nil {
		return nil, err
	}
	if r.JOB, err = l.JOB(); err != nil {
		return nil, err
	}
	if r.Ratio, err = l.RatioAblation(); err != nil {
		return nil, err
	}
	if r.Delta, err = l.DeltaRobustness(); err != nil {
		return nil, err
	}
	if r.Correlated, err = l.CorrelatedWorkload(); err != nil {
		return nil, err
	}
	if r.Estimation, err = l.EstimationStudy(); err != nil {
		return nil, err
	}
	if r.Reopt, err = l.ReoptComparison(); err != nil {
		return nil, err
	}
	if r.Lambda, err = l.LambdaSensitivity(); err != nil {
		return nil, err
	}
	if r.Summary, err = l.Summary(); err != nil {
		return nil, err
	}
	return &r, nil
}

// WriteJSON streams the report as indented JSON. Infinities (possible in
// Table 2's max penalty) are replaced by a large sentinel to stay within
// JSON's number grammar.
func (r *Report) WriteJSON(w io.Writer) error {
	clean := *r
	clean.Table2 = append([]Table2Row(nil), r.Table2...)
	for i := range clean.Table2 {
		if clean.Table2[i].MaxLambda > 1e300 {
			clean.Table2[i].MaxLambda = 1e300
		}
	}
	// The histograms' overflow buckets are [x, +Inf).
	clean.Fig12.PB = clampBuckets(r.Fig12.PB)
	clean.Fig12.SB = clampBuckets(r.Fig12.SB)
	clean.Fig12.AB = clampBuckets(r.Fig12.AB)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&clean)
}

func clampBuckets(in []metrics.Bucket) []metrics.Bucket {
	out := append([]metrics.Bucket(nil), in...)
	for i := range out {
		if out[i].Hi > 1e300 {
			out[i].Hi = 1e300
		}
	}
	return out
}
