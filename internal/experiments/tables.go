package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/aligned"
	"repro/internal/bouquet"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/native"
	"repro/internal/optimizer"
	"repro/internal/spillbound"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Table2Row is one row of the contour alignment cost study (paper Table 2):
// what fraction of a query's contours satisfies contour alignment natively,
// and under bounded replacement penalties.
type Table2Row struct {
	// Query is the xD_Qz name.
	Query string
	// OriginalPct is the percentage of contours natively aligned.
	OriginalPct float64
	// Pct12, Pct15, Pct20 are the percentages aligned with replacement
	// penalty at most 1.2, 1.5, 2.0.
	Pct12, Pct15, Pct20 float64
	// MaxLambda is the penalty needed to align every contour (+Inf if some
	// contour cannot be aligned at any cost).
	MaxLambda float64
}

// table2Queries lists the queries the paper tabulates.
var table2Queries = []string{"3D_Q96", "4D_Q7", "4D_Q26", "4D_Q91", "5D_Q29", "5D_Q84"}

// Table2 computes the cost of enforcing contour alignment (paper Table 2).
func (l *Lab) Table2() ([]Table2Row, error) {
	var rows []Table2Row
	for _, name := range table2Queries {
		sp, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown table-2 query %q", name)
		}
		s, err := l.Space(sp)
		if err != nil {
			return nil, err
		}
		st := aligned.AnalyzeAlignment(s, contourRatio)
		rows = append(rows, Table2Row{
			Query:       sp.Name,
			OriginalPct: st.NativePct(),
			Pct12:       st.WithinPct(1.2),
			Pct15:       st.WithinPct(1.5),
			Pct20:       st.WithinPct(2.0),
			MaxLambda:   st.MaxPenalty(),
		})
	}
	return rows, nil
}

// Table3Row is one contour line of the SpillBound execution drill-down
// (paper Table 3): the selectivity learnt per epp on that contour and the
// cumulative simulated time.
type Table3Row struct {
	// Contour is the 1-based contour number.
	Contour int
	// SelPct[d] is the running learnt selectivity of epp d, in percent.
	SelPct []float64
	// Plans[d] names the plan execution that advanced epp d on this
	// contour ("p7" spill-mode, "P10" regular), empty if none.
	Plans []string
	// CumSeconds is the cumulative simulated wall-clock after the contour.
	CumSeconds float64
}

// Table3Result is the full wall-clock experiment of Sec 6.3: the SpillBound
// drill-down plus the end-to-end comparison of the native optimizer,
// SpillBound and AlignedBound at one true location.
type Table3Result struct {
	// Query is the drilled query (paper: 4D_Q91).
	Query string
	// Truth is the chosen actual selectivity location.
	Truth cost.Location
	// Rows is the per-contour drill-down.
	Rows []Table3Row
	// OptSeconds is the oracle-optimal simulated time (paper: 44 s).
	OptSeconds float64
	// NativeSeconds, SBSeconds, ABSeconds are the three strategies' times.
	NativeSeconds, SBSeconds, ABSeconds float64
	// NativeSubOpt, SBSubOpt, ABSubOpt are the corresponding
	// sub-optimalities.
	NativeSubOpt, SBSubOpt, ABSubOpt float64
	// SBExecutions counts SpillBound's partial plan executions.
	SBExecutions int
}

// Table3 reproduces the wall-clock experiment on 4D_Q91 (paper Table 3 and
// Sec 6.3). The paper's optimal plan took 44 seconds on their testbed; cost
// units convert to seconds at the scale that makes the oracle time match,
// making the reported seconds directly comparable in shape.
func (l *Lab) Table3() (Table3Result, error) {
	sp := workload.Q91(4)
	s, err := l.Space(sp)
	if err != nil {
		return Table3Result{}, err
	}
	// A challenging actual location: high selectivity on the date join,
	// middling elsewhere — mirroring the paper's learnt (80%, 0.8%, 5%,
	// 60%) endpoint.
	truth := cost.Location{0.8, 0.008, 0.05, 0.6}
	// The oracle optimum at the exact location: the grid only holds on-grid
	// optima.
	o, err := optimizer.New(s.Model)
	if err != nil {
		return Table3Result{}, err
	}
	_, optCost := o.Optimize(truth)

	const paperOptSeconds = 44.0
	timeScale := optCost / paperOptSeconds

	rec := telemetry.NewRecorder()
	sb, err := (&spillbound.Runner{Space: s, Ratio: contourRatio}).RunContext(telemetry.With(context.Background(), rec), engine.New(s.Model, truth))
	if err != nil {
		return Table3Result{}, err
	}

	res := Table3Result{
		Query: sp.Name, Truth: truth,
		OptSeconds: paperOptSeconds,
		SBSeconds:  optCost / timeScale * (sb.TotalCost / optCost),
		SBSubOpt:   sb.TotalCost / optCost,
	}

	// Drill-down rows: fold the charged executions per contour.
	d := s.Query.D()
	sel := make([]float64, d)
	cum := 0.0
	var cur *Table3Row
	flush := func() {
		if cur != nil {
			res.Rows = append(res.Rows, *cur)
			cur = nil
		}
	}
	for _, ev := range rec.Events() {
		if !ev.Charged() {
			continue
		}
		res.SBExecutions++
		if cur == nil || cur.Contour != ev.Contour {
			flush()
			cur = &Table3Row{
				Contour: ev.Contour,
				SelPct:  append([]float64(nil), sel...),
				Plans:   make([]string, d),
			}
		}
		cum += ev.Spent
		cur.CumSeconds = cum / timeScale
		if ev.Dim >= 0 {
			if ev.Learned*100 > cur.SelPct[ev.Dim] {
				cur.SelPct[ev.Dim] = ev.Learned * 100
				sel[ev.Dim] = ev.Learned * 100
			}
			cur.Plans[ev.Dim] = fmt.Sprintf("p%d", ev.PlanID)
		} else if len(cur.Plans) > 0 {
			// Terminal 1-D phase: attribute to the single unlearned dim.
			for dim := 0; dim < d; dim++ {
				if sel[dim] < truth[dim]*100 {
					cur.Plans[dim] = fmt.Sprintf("P%d", ev.PlanID)
					if ev.Completed {
						cur.SelPct[dim] = truth[dim] * 100
						sel[dim] = truth[dim] * 100
					}
				}
			}
		}
	}
	flush()

	// Native and AlignedBound comparisons at the same location.
	// The native plan is the optimum at the estimate's covering grid cell.
	nativeCost := s.Model.Eval(s.PlanAt(s.Grid.CoveringCell(s.Model.EstimateLocation())), truth)
	res.NativeSubOpt = nativeCost / optCost
	res.NativeSeconds = nativeCost / timeScale

	ab := (&aligned.Runner{Space: s, Ratio: contourRatio}).Run(engine.New(s.Model, truth))
	res.ABSubOpt = ab.TotalCost / optCost
	res.ABSeconds = ab.TotalCost / timeScale
	return res, nil
}

// Table4Row is one row of the AlignedBound maximum-penalty study (paper
// Table 4).
type Table4Row struct {
	// Query is the xD_Qz name.
	Query string
	// MaxPenalty is the largest partition penalty π* encountered across
	// the query's MSO sweep.
	MaxPenalty float64
}

// Table4 computes per-query maximum AlignedBound partition penalties.
func (l *Lab) Table4() ([]Table4Row, error) {
	var rows []Table4Row
	for _, sp := range workload.TPCDSQueries() {
		s, err := l.Space(sp)
		if err != nil {
			return nil, err
		}
		_, maxPen := l.abSweep(sp.Name, s)
		rows = append(rows, Table4Row{Query: sp.Name, MaxPenalty: maxPen})
	}
	return rows, nil
}

// PlatformRow is the Sec 1.1.3 demonstration: PlanBouquet's behavioral
// guarantee shifts across platforms while SpillBound's structural bound is
// identical.
type PlatformRow struct {
	// Profile names the cost-model profile.
	Profile string
	// RhoRed and PB are the profile-specific density and guarantee.
	RhoRed int
	// PB is PlanBouquet's guarantee under the profile.
	PB float64
	// SB is SpillBound's (platform-independent) guarantee.
	SB float64
}

// PlatformShift evaluates the Q25 analogue (the paper's Sec 1.1.3 example)
// under both cost profiles.
func (l *Lab) PlatformShift() ([]PlatformRow, error) {
	sp := workload.Q25()
	var rows []PlatformRow
	for _, params := range []cost.Params{cost.PostgresLike(), cost.CommercialLike()} {
		s, err := l.SpaceWith(sp, params)
		if err != nil {
			return nil, err
		}
		d := bouquet.Reduce(s, reductionLambda)
		costs := s.ContourCosts(contourRatio)
		rows = append(rows, PlatformRow{
			Profile: params.Name, RhoRed: d.Rho(costs),
			PB: d.Guarantee(costs),
			SB: spillbound.Guarantee(sp.D),
		})
	}
	return rows, nil
}

// JOBResult is the Sec 6.5 evaluation on the JOB Q1a analogue.
type JOBResult struct {
	// Query is the JOB query name.
	Query string
	// NativeMSO is the native optimizer's MSO over estimate/actual pairs.
	NativeMSO float64
	// SBMSO and ABMSO are the robust algorithms' empirical MSOs.
	SBMSO, ABMSO float64
}

// JOB evaluates the native optimizer, SpillBound and AlignedBound on the
// JOB Q1a analogue (paper Sec 6.5: native MSO above 6000, SB ≈ 12, AB < 9).
func (l *Lab) JOB() (JOBResult, error) {
	sp := workload.JOB1a()
	s, err := l.Space(sp)
	if err != nil {
		return JOBResult{}, err
	}
	sb := l.cachedSweep("sb:"+sp.Name, s, l.sbRun(s))
	ab, _ := l.abSweep(sp.Name, s)
	return JOBResult{
		Query:     sp.Name,
		NativeMSO: native.MSO(s, 1),
		SBMSO:     sb.MSO,
		ABMSO:     ab.MSO,
	}, nil
}

// RenderTable2 renders the alignment cost table.
func RenderTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cost of enforcing contour alignment (Table 2)\n%-10s %9s %7s %7s %7s %8s\n",
		"query", "original", "λ=1.2", "λ=1.5", "λ=2.0", "max λ")
	for _, r := range rows {
		maxStr := fmt.Sprintf("%8.2f", r.MaxLambda)
		if math.IsInf(r.MaxLambda, 1) {
			maxStr = "     inf"
		}
		fmt.Fprintf(&b, "%-10s %8.0f%% %6.0f%% %6.0f%% %6.0f%% %s\n",
			r.Query, r.OriginalPct, r.Pct12, r.Pct15, r.Pct20, maxStr)
	}
	return b.String()
}

// RenderTable3 renders the wall-clock drill-down.
func RenderTable3(res Table3Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "SpillBound execution on %s at q_a=%v (Table 3 / Sec 6.3)\n", res.Query, res.Truth)
	fmt.Fprintf(&b, "%-8s", "contour")
	for d := range res.Truth {
		fmt.Fprintf(&b, " %14s", fmt.Sprintf("e%d sel%%(plan)", d+1))
	}
	fmt.Fprintf(&b, " %10s\n", "time (s)")
	for _, row := range res.Rows {
		fmt.Fprintf(&b, "%-8d", row.Contour)
		for d := range row.SelPct {
			cell := fmt.Sprintf("%.3g", row.SelPct[d])
			if row.Plans[d] != "" {
				cell += " (" + row.Plans[d] + ")"
			}
			fmt.Fprintf(&b, " %14s", cell)
		}
		fmt.Fprintf(&b, " %10.1f\n", row.CumSeconds)
	}
	fmt.Fprintf(&b, "\noptimal: %.0f s | native: %.0f s (subopt %.1f) | SB: %.0f s (subopt %.1f, %d executions) | AB: %.0f s (subopt %.1f)\n",
		res.OptSeconds, res.NativeSeconds, res.NativeSubOpt,
		res.SBSeconds, res.SBSubOpt, res.SBExecutions,
		res.ABSeconds, res.ABSubOpt)
	return b.String()
}

// RenderTable4 renders the AlignedBound penalty summary.
func RenderTable4(rows []Table4Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Maximum partition penalty for AB (Table 4)\n%-10s %12s\n", "query", "max penalty")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %12.2f\n", r.Query, r.MaxPenalty)
	}
	return b.String()
}

// RenderPlatform renders the platform-shift rows.
func RenderPlatform(rows []PlatformRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Platform dependence of PB's guarantee (Sec 1.1.3, 4D_Q25)\n%-16s %6s %10s %10s\n",
		"profile", "ρ_red", "PB MSOg", "SB MSOg")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %6d %10.1f %10.0f\n", r.Profile, r.RhoRed, r.PB, r.SB)
	}
	return b.String()
}

// RenderJOB renders the JOB evaluation.
func RenderJOB(res JOBResult) string {
	return fmt.Sprintf("JOB evaluation (Sec 6.5, %s)\nnative MSO: %.0f\nSB MSO:     %.1f\nAB MSO:     %.1f\n",
		res.Query, res.NativeMSO, res.SBMSO, res.ABMSO)
}
