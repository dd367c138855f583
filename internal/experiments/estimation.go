package experiments

import (
	"fmt"
	"strings"

	"repro/internal/bouquet"
	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/estimate"
	"repro/internal/optimizer"
	"repro/internal/query"
	"repro/internal/reopt"
	"repro/internal/spillbound"
	"repro/internal/workload"
)

// EstimationRow quantifies the paper's premise for one skew setting: the
// true join selectivity of the synthetic data versus the statistics-only
// (AVI) and sampling-based estimates, with multiplicative error factors.
type EstimationRow struct {
	// Skew is the generator's heavy-hitter parameter (0 = uniform).
	Skew float64
	// True is the data's actual join selectivity.
	True float64
	// AVI and Sampled are the two estimates.
	AVI, Sampled float64
	// AVIError and SampledError are max(t/e, e/t).
	AVIError, SampledError float64
}

// EstimationStudy measures estimation error as data skew grows — the
// "selectivity estimates ... often significantly in error" motivation of
// the paper's introduction. The robust algorithms are indifferent to these
// errors (their guarantees hold at every ESS location); the native
// optimizer's sub-optimality is driven by them.
func (l *Lab) EstimationStudy() ([]EstimationRow, error) {
	var rows []EstimationRow
	for _, skew := range []float64{0, 0.5, 1, 2, 4} {
		q, err := skewJoinQuery(skew)
		if err != nil {
			return nil, err
		}
		truth, err := estimate.TrueJoinSelectivity(q, 0, 40000)
		if err != nil {
			return nil, err
		}
		avi, err := estimate.AVIJoinSelectivity(q, 0)
		if err != nil {
			return nil, err
		}
		sampled, err := estimate.SampledJoinSelectivity(q, 0, 5000)
		if err != nil {
			return nil, err
		}
		rows = append(rows, EstimationRow{
			Skew: skew, True: truth, AVI: avi, Sampled: sampled,
			AVIError:     estimate.ErrorFactor(truth, avi),
			SampledError: estimate.ErrorFactor(truth, sampled),
		})
	}
	return rows, nil
}

// skewJoinQuery builds an orders ⋈ lineitem-shaped join whose key columns
// carry the given skew.
func skewJoinQuery(skew float64) (*query.Query, error) {
	c := catalog.New("skewstudy")
	if err := c.AddTable(&catalog.Table{
		Name: "orders", Rows: 150000, RowBytes: 104,
		Columns: []catalog.Column{
			{Name: "o_orderkey", Distinct: 150000, Min: 1, Max: 150000, Skew: skew},
		},
	}); err != nil {
		return nil, err
	}
	if err := c.AddTable(&catalog.Table{
		Name: "lineitem", Rows: 600000, RowBytes: 112,
		Columns: []catalog.Column{
			{Name: "l_orderkey", Distinct: 150000, Min: 1, Max: 150000, Skew: skew},
		},
	}); err != nil {
		return nil, err
	}
	ot, _ := c.Table("orders")
	lt, _ := c.Table("lineitem")
	q := &query.Query{
		Name: fmt.Sprintf("skew_%g", skew),
		Relations: []query.Relation{
			{Alias: "o", Table: ot},
			{Alias: "l", Table: lt},
		},
		Joins: []query.Join{{
			ID:   0,
			Left: query.ColumnRef{Alias: "o", Column: "o_orderkey"},
			Right: query.ColumnRef{
				Alias: "l", Column: "l_orderkey",
			},
		}},
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// RenderEstimation renders the estimation error study.
func RenderEstimation(rows []EstimationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Selectivity estimation error vs data skew (paper Sec 1 premise)\n")
	fmt.Fprintf(&b, "%6s %12s %12s %12s %10s %12s\n",
		"skew", "true sel", "AVI est", "sampled est", "AVI err×", "sampled err×")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6.1f %12.3g %12.3g %12.3g %10.1f %12.1f\n",
			r.Skew, r.True, r.AVI, r.Sampled, r.AVIError, r.SampledError)
	}
	b.WriteString("\nthe robust algorithms' guarantees are independent of every column above.\n")
	return b.String()
}

// ReoptRow compares the POP-style progressive reoptimization heuristic
// (Sec 8's contrast class) with the bounded algorithms on one query.
type ReoptRow struct {
	// Query is the benchmark query.
	Query string
	// D is the epp count.
	D int
	// POP, Rio, SB, AB are the empirical MSOs.
	POP, Rio, SB, AB float64
	// SBBound is D²+3D.
	SBBound float64
}

// ReoptComparison sweeps the POP-style baseline against SpillBound and
// AlignedBound on the 2D and 3D Q91 instances, demonstrating the absence
// of a bound for validity-range heuristics.
func (l *Lab) ReoptComparison() ([]ReoptRow, error) {
	var rows []ReoptRow
	for _, d := range []int{2, 3} {
		sp := workload.Q91(d)
		s, err := l.Space(sp)
		if err != nil {
			return nil, err
		}
		cat, err := l.Catalog(sp.Catalog)
		if err != nil {
			return nil, err
		}
		q, err := sp.Build(cat)
		if err != nil {
			return nil, err
		}
		m, err := cost.NewModel(q, paperParams)
		if err != nil {
			return nil, err
		}
		o, err := optimizer.New(m)
		if err != nil {
			return nil, err
		}
		pop := reopt.NewRunner(o)
		// The POP runner re-invokes the (non-concurrency-safe) optimizer,
		// so its sweep stays sequential regardless of Config.Workers.
		popSweep := l.sweepOn(s, func(truth cost.Location) float64 {
			return pop.Run(truth).TotalCost
		}, 1)
		rio := reopt.NewRioRunner(s)
		rioSweep := l.sweep(s, rio.Run)
		sb := l.cachedSweep("sb:"+sp.Name, s, l.sbRun(s))
		ab, _ := l.abSweep(sp.Name, s)
		rows = append(rows, ReoptRow{
			Query: sp.Name, D: d,
			POP: popSweep.MSO, Rio: rioSweep.MSO, SB: sb.MSO, AB: ab.MSO,
			SBBound: spillbound.Guarantee(d),
		})
	}
	return rows, nil
}

// RenderReopt renders the reoptimization comparison.
func RenderReopt(rows []ReoptRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Plan-switching heuristics vs bounded discovery (Sec 8)\n")
	fmt.Fprintf(&b, "%-8s %3s %12s %12s %8s %8s %8s\n", "query", "D", "POP MSOe", "Rio MSOe", "SB MSOe", "AB MSOe", "D²+3D")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %3d %12.1f %12.1f %8.1f %8.1f %8.0f\n", r.Query, r.D, r.POP, r.Rio, r.SB, r.AB, r.SBBound)
	}
	return b.String()
}

// LambdaRow is one line of the anorexic-reduction sensitivity study:
// PlanBouquet's plan count, guarantee and empirical MSO under one reduction
// threshold λ.
type LambdaRow struct {
	// Lambda is the reduction threshold.
	Lambda float64
	// Plans is the reduced diagram's plan count.
	Plans int
	// Rho is the max contour density.
	Rho int
	// Guarantee is 4(1+λ)ρ.
	Guarantee float64
	// MSOe is the measured MSO.
	MSOe float64
}

// LambdaSensitivity probes the paper's critique (iii) of PlanBouquet:
// "ensuring a bound that is small enough to be of practical value is
// contingent on the heuristic of anorexic reduction holding true". Without
// reduction (λ=0) the raw POSP density makes the guarantee enormous;
// growing λ shrinks ρ but inflates every budget by (1+λ).
func (l *Lab) LambdaSensitivity() ([]LambdaRow, error) {
	sp := workload.Q91(4)
	s, err := l.Space(sp)
	if err != nil {
		return nil, err
	}
	var rows []LambdaRow
	for _, lambda := range []float64{0, 0.1, 0.2, 0.5, 1.0} {
		d := bouquet.Reduce(s, lambda)
		costs := s.ContourCosts(contourRatio)
		sweep := l.sweep(s, func(truth cost.Location) float64 {
			return bouquet.Run(d, engine.New(s.Model, truth), contourRatio).TotalCost
		})
		rows = append(rows, LambdaRow{
			Lambda: lambda, Plans: d.PlanCount(), Rho: d.Rho(costs),
			Guarantee: d.Guarantee(costs),
			MSOe:      sweep.MSO,
		})
	}
	return rows, nil
}

// RenderLambda renders the λ sensitivity table.
func RenderLambda(rows []LambdaRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Anorexic reduction sensitivity (PlanBouquet, 4D_Q91)\n")
	fmt.Fprintf(&b, "%6s %8s %6s %12s %8s\n", "λ", "plans", "ρ", "4(1+λ)ρ", "MSOe")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6.1f %8d %6d %12.1f %8.1f\n", r.Lambda, r.Plans, r.Rho, r.Guarantee, r.MSOe)
	}
	return b.String()
}
