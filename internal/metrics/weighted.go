package metrics

import (
	"math"

	"repro/internal/cost"
	"repro/internal/ess"
)

// Weighted sweeps evaluate a strategy under a non-uniform workload
// distribution over the true location — the paper's Eq. (8) assumes all
// q_a equally likely; real workloads concentrate, and the paper's stated
// future work (Sec 9) is the case of *dependent* predicate selectivities.
// A weighted sweep with a correlated density probes exactly that scenario:
// the per-instance MSO guarantee is unaffected (it holds pointwise), while
// the average-case behaviour shifts with the workload's shape.

// Density maps an ESS location to an unnormalized workload probability.
type Density func(loc cost.Location) float64

// Reweight re-aggregates a finished sweep under the workload density w over
// grid g: ASO becomes the density-weighted mean sub-optimality, and MSO the
// maximum over cells of positive weight (negative, NaN and infinite weights
// count as zero). The strategy's runs do not depend on the workload, so
// one sweep serves every density.
func Reweight(g ess.Grid, res SweepResult, w Density) SweepResult {
	out := SweepResult{Cells: res.Cells, SubOpt: res.SubOpt}
	out.aggregate(func(ci int) float64 {
		weight := w(g.Location(ci))
		if math.IsNaN(weight) || math.IsInf(weight, 0) {
			return 0
		}
		return weight
	})
	return out
}

// CorrelatedLogNormal returns a Density modeling *dependent* predicate
// selectivities: the log10-selectivities are jointly Gaussian with common
// mean center, standard deviation sigma (in decades) and exchangeable
// pairwise correlation rho in (-1/(D-1), 1). rho = 0 recovers independent
// log-normal selectivities; rho → 1 makes the predicates move together —
// the paper's dependent-selectivity regime.
func CorrelatedLogNormal(d int, center, sigma, rho float64) Density {
	if sigma <= 0 {
		panic("metrics: sigma must be positive")
	}
	lo := -1.0 / float64(d-1)
	if d == 1 {
		lo = -1
	}
	if rho <= lo || rho >= 1 {
		panic("metrics: rho outside the exchangeable-correlation range")
	}
	// Inverse of Σ = σ²[(1-ρ)I + ρJ]:
	// Σ⁻¹ = a·I + b·J with a = 1/(σ²(1-ρ)), b = -aρ/(1+(D-1)ρ).
	a := 1 / (sigma * sigma * (1 - rho))
	b := -a * rho / (1 + float64(d-1)*rho)
	return func(loc cost.Location) float64 {
		xs := make([]float64, len(loc))
		sum := 0.0
		for i, v := range loc {
			if v <= 0 {
				return 0
			}
			xs[i] = math.Log10(v) - center
			sum += xs[i]
		}
		quad := 0.0
		for _, x := range xs {
			quad += a * x * x
		}
		quad += b * sum * sum
		return math.Exp(-0.5 * quad)
	}
}
