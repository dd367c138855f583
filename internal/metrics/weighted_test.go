package metrics

import (
	"math"
	"testing"

	"repro/internal/cost"
	"repro/internal/ess"
)

// referenceWeightedSweep is the weighted sweep as one serial loop that runs
// the strategy and weights it cell by cell: the oracle Reweight must match
// exactly.
func referenceWeightedSweep(s *ess.Space, run RunFunc, w Density, opts SweepOptions) SweepResult {
	g := s.Grid
	cells := pickCells(g.Size(), opts)
	res := SweepResult{Cells: cells, SubOpt: make([]float64, len(cells)), MSOCell: -1}
	sum, wsum := 0.0, 0.0
	for i, ci := range cells {
		loc := g.Location(ci)
		weight := w(loc)
		if weight < 0 || math.IsNaN(weight) || math.IsInf(weight, 0) {
			weight = 0
		}
		so := run(loc) / s.CostAt(ci)
		res.SubOpt[i] = so
		if weight > 0 {
			sum += weight * so
			wsum += weight
			if so > res.MSO {
				res.MSO = so
				res.MSOCell = ci
			}
		}
	}
	if wsum > 0 {
		res.ASO = sum / wsum
	}
	return res
}

// weightedSweep sweeps run and reweights the result by w, asserting exact
// equality with the reference loop.
func weightedSweep(t *testing.T, s *ess.Space, run RunFunc, w Density, opts SweepOptions) SweepResult {
	t.Helper()
	got := Reweight(s.Grid, sweep(t, s, run, opts), w)
	want := referenceWeightedSweep(s, run, w, opts)
	if got.MSO != want.MSO || got.MSOCell != want.MSOCell || got.ASO != want.ASO {
		t.Fatalf("Reweight = MSO %v@%d ASO %v, reference MSO %v@%d ASO %v",
			got.MSO, got.MSOCell, got.ASO, want.MSO, want.MSOCell, want.ASO)
	}
	return got
}

func TestWeightedSweepUniformMatchesPlain(t *testing.T) {
	s := buildSpace(t, 8)
	run := func(truth cost.Location) float64 { return s.CostAt(0) * 3 }
	plain := sweep(t, s, run, SweepOptions{})
	weighted := weightedSweep(t, s, run, func(cost.Location) float64 { return 1 }, SweepOptions{})
	if math.Abs(plain.ASO-weighted.ASO) > 1e-12 {
		t.Errorf("uniform weighted ASO %g != plain %g", weighted.ASO, plain.ASO)
	}
	if plain.MSO != weighted.MSO {
		t.Errorf("uniform weighted MSO %g != plain %g", weighted.MSO, plain.MSO)
	}
}

func TestWeightedSweepConcentration(t *testing.T) {
	s := buildSpace(t, 8)
	g := s.Grid
	// Sub-optimality profile that grows with the cell index.
	run := func(truth cost.Location) float64 {
		ci := g.Flatten([]int{g.CeilIndex(0, truth[0]), g.CeilIndex(1, truth[1])})
		return s.CostAt(ci) * (1 + float64(ci)/float64(g.Size()))
	}
	// Mass near the origin → low ASO; mass near the terminus → high ASO.
	atOrigin := weightedSweep(t, s, run, CorrelatedLogNormal(2, -6, 0.5, 0), SweepOptions{})
	atTerminus := weightedSweep(t, s, run, CorrelatedLogNormal(2, 0, 0.5, 0), SweepOptions{})
	if atOrigin.ASO >= atTerminus.ASO {
		t.Errorf("origin-weighted ASO %g should undercut terminus-weighted %g",
			atOrigin.ASO, atTerminus.ASO)
	}
}

func TestWeightedSweepIgnoresBadWeights(t *testing.T) {
	s := buildSpace(t, 6)
	run := func(truth cost.Location) float64 { return s.CostAt(0) }
	res := weightedSweep(t, s, run, func(loc cost.Location) float64 {
		if loc[0] < 1e-3 {
			return math.NaN()
		}
		return 1
	}, SweepOptions{})
	if res.ASO <= 0 || math.IsNaN(res.ASO) {
		t.Errorf("ASO = %g with NaN weights present", res.ASO)
	}
}

func TestCorrelatedLogNormalShape(t *testing.T) {
	d := CorrelatedLogNormal(2, -3, 1, 0.8)
	center := cost.Location{1e-3, 1e-3}
	onDiag := cost.Location{1e-2, 1e-2}
	offDiag := cost.Location{1e-2, 1e-4}
	if d(center) <= d(onDiag) {
		t.Error("density should peak at the center")
	}
	// Positive correlation favours locations where both selectivities move
	// together over anti-diagonal ones at equal total displacement.
	if d(onDiag) <= d(offDiag) {
		t.Errorf("ρ=0.8 should favour the diagonal: %g vs %g", d(onDiag), d(offDiag))
	}
	// Independent case treats them equally.
	ind := CorrelatedLogNormal(2, -3, 1, 0)
	if math.Abs(ind(onDiag)-ind(offDiag)) > 1e-12 {
		t.Errorf("ρ=0 should be symmetric: %g vs %g", ind(onDiag), ind(offDiag))
	}
	if d(cost.Location{0, 1e-3}) != 0 {
		t.Error("non-positive selectivities get zero mass")
	}
}

func TestCorrelatedLogNormalPanics(t *testing.T) {
	for _, f := range []func(){
		func() { CorrelatedLogNormal(2, 0, 0, 0.5) },  // sigma
		func() { CorrelatedLogNormal(2, 0, 1, 1) },    // rho high
		func() { CorrelatedLogNormal(3, 0, 1, -0.6) }, // rho below -1/(D-1)
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}
