// Package estimate implements the selectivity estimation substrate whose
// failure modes motivate the whole paper: the textbook NDV-based (AVI)
// estimates a traditional optimizer derives from catalog statistics and
// sampling-based estimation over the synthetic row generators. On uniform
// data both agree with ground truth; on skewed data the statistics-only
// estimates err systematically — the "significantly in error"
// selectivities of the paper's introduction — while the robust algorithms
// remain indifferent (their guarantees are selectivity-free).
package estimate

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/query"
	"repro/internal/rowexec"
)

// AVIJoinSelectivity returns the classic statistics-only estimate for an
// equi-join: 1/max(NDV_l, NDV_r) — what the cost model (and the native
// optimizer) assumes.
func AVIJoinSelectivity(q *query.Query, joinID int) (float64, error) {
	j := q.Joins[joinID]
	lc, ok := q.Relations[j.LeftRel].Table.Column(j.Left.Column)
	if !ok {
		return 0, fmt.Errorf("estimate: missing column %v", j.Left)
	}
	rc, ok := q.Relations[j.RightRel].Table.Column(j.Right.Column)
	if !ok {
		return 0, fmt.Errorf("estimate: missing column %v", j.Right)
	}
	m := lc.Distinct
	if rc.Distinct > m {
		m = rc.Distinct
	}
	return 1 / float64(m), nil
}

// TrueJoinSelectivity computes the ground-truth match probability of an
// equi-join over the synthetic generators: P(l = r) = Σ_v pL(v)·pR(v),
// evaluated empirically over sampleRows draws per side. Deterministic for
// a given sample size.
func TrueJoinSelectivity(q *query.Query, joinID int, sampleRows int64) (float64, error) {
	j := q.Joins[joinID]
	lc, ok := q.Relations[j.LeftRel].Table.Column(j.Left.Column)
	if !ok {
		return 0, fmt.Errorf("estimate: missing column %v", j.Left)
	}
	rc, ok := q.Relations[j.RightRel].Table.Column(j.Right.Column)
	if !ok {
		return 0, fmt.Errorf("estimate: missing column %v", j.Right)
	}
	pl := valueDistribution(lc, sampleRows)
	pr := valueDistribution(rc, sampleRows)
	sel := 0.0
	for v, p := range pl {
		sel += p * pr[v]
	}
	return sel, nil
}

// valueDistribution empirically measures the generator's value frequencies.
func valueDistribution(col catalog.Column, rows int64) map[rowexec.Value]float64 {
	counts := map[rowexec.Value]int64{}
	for r := int64(0); r < rows; r++ {
		counts[rowexec.ColumnValue(col, r)]++
	}
	out := make(map[rowexec.Value]float64, len(counts))
	for v, c := range counts {
		out[v] = float64(c) / float64(rows)
	}
	return out
}

// SampledJoinSelectivity estimates the join selectivity by joining two
// row samples — what a sampling-based estimator (Rio-style) would observe.
// The sample offset decorrelates it from TrueJoinSelectivity's sweep.
func SampledJoinSelectivity(q *query.Query, joinID int, sampleRows int64) (float64, error) {
	j := q.Joins[joinID]
	lc, ok := q.Relations[j.LeftRel].Table.Column(j.Left.Column)
	if !ok {
		return 0, fmt.Errorf("estimate: missing column %v", j.Left)
	}
	rc, ok := q.Relations[j.RightRel].Table.Column(j.Right.Column)
	if !ok {
		return 0, fmt.Errorf("estimate: missing column %v", j.Right)
	}
	const offset = 1 << 20
	lvals := map[rowexec.Value]int64{}
	for r := int64(0); r < sampleRows; r++ {
		lvals[rowexec.ColumnValue(lc, offset+r)]++
	}
	matches := int64(0)
	for r := int64(0); r < sampleRows; r++ {
		matches += lvals[rowexec.ColumnValue(rc, 2*offset+r)]
	}
	return float64(matches) / (float64(sampleRows) * float64(sampleRows)), nil
}

// ErrorFactor returns the multiplicative estimation error max(t/e, e/t):
// 1 means exact; the paper's motivating blowups correspond to factors in
// the hundreds or more.
func ErrorFactor(truth, est float64) float64 {
	if truth <= 0 || est <= 0 {
		return 0
	}
	if truth > est {
		return truth / est
	}
	return est / truth
}
