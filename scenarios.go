package repro

import (
	"context"
	"fmt"

	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/viz"
)

// This file exposes the error-regime scenario machinery: seeded scenario
// suites sweeping the three q-error regimes (benign, regret-correlated,
// adversarial — see PAPERS.md "When Does q-error Predict Plan Regret?"),
// per-regime MSO/ASO sweeps with a guardrail-intervention census, and the
// Graefe-style robustness atlas built from them.

// The three error regimes, as reported by Scenario.Regime and
// RegimeSummary.Regime.
const (
	// RegimeBenign: estimation error present, plan regret absent.
	RegimeBenign = "benign"
	// RegimeCorrelated: damage proportional to the error magnitude (budget
	// overruns; the budget cut-off's regime).
	RegimeCorrelated = "regret-correlated"
	// RegimeAdversarial: damage decoupled from the error magnitude (ESS
	// escapes, transient failures, checkpoint crashes).
	RegimeAdversarial = "adversarial"
)

// Regimes returns the regime labels in canonical sweep order.
func Regimes() []string {
	out := make([]string, 0, 3)
	for _, r := range scenario.Regimes() {
		out = append(out, r.String())
	}
	return out
}

// Scenario is one named error-regime composition of fault knobs.
type Scenario struct {
	// Name is "<regime>-<n>", unique within a suite.
	Name string
	// Regime is the scenario's error regime (RegimeBenign, RegimeCorrelated
	// or RegimeAdversarial).
	Regime string
	// Faults is the fault composition applied to every run under the
	// scenario (a fresh injection plan is instantiated per run).
	Faults FaultPlan
}

// ScenarioSuite generates perRegime scenarios for each of the three q-error
// regimes, deterministically from the seed. Knob values depend only on
// (seed, regime, index), so suites of different sizes agree on their common
// scenarios, and the leading scenario of each regime has a pinned fault
// class: "regret-correlated-1" always overruns budgets (budget-abort drill),
// "adversarial-1" always skews monitoring past the ESS boundary (escape
// drill).
func ScenarioSuite(seed int64, perRegime int) []Scenario {
	suite := scenario.Suite(seed, perRegime)
	out := make([]Scenario, len(suite))
	for i, sc := range suite {
		out[i] = fromInternal(sc)
	}
	return out
}

// ScenarioByName regenerates the named scenario from the seed
// ("adversarial-2" resolves identically in every process using the same
// seed) — the lookup backing the daemon's scenario-tagged run requests.
func ScenarioByName(seed int64, name string) (Scenario, bool) {
	sc, ok := scenario.ByName(seed, name)
	if !ok {
		return Scenario{}, false
	}
	return fromInternal(sc), true
}

func fromInternal(sc scenario.Scenario) Scenario {
	return Scenario{Name: sc.Name, Regime: sc.Regime.String(), Faults: sc.Knobs}
}

// RegimeSummary aggregates one algorithm's robustness within one error
// regime: MSO/ASO over every (scenario, location) pair plus the census of
// guardrail interventions — the per-regime numbers that one aggregate MSO
// hides (a strategy can look robust on average while an entire regime is
// carried by the escape fallback).
type RegimeSummary struct {
	// Regime is the regime label (RegimeBenign, ...).
	Regime string
	// Algorithm is the evaluated strategy.
	Algorithm Algorithm
	// Scenarios is how many suite scenarios fed the aggregate.
	Scenarios int
	// MSO is the worst sub-optimality over every (scenario, location) pair.
	MSO float64
	// ASO is the average sub-optimality.
	ASO float64
	// Locations counts the accounted (scenario, location) evaluations.
	Locations int
	// WorstLocation attains the MSO (nil when nothing ran).
	WorstLocation Location
	// GuardVerdicts counts runs by guard intervention: "budget_abort",
	// "ess_escape", "crashed". Clean runs are not counted.
	GuardVerdicts map[string]int
	// Degraded counts runs that fell back to the Native plan.
	Degraded int
	// Skipped counts evaluations excluded from the aggregates (unexpected
	// terminal errors).
	Skipped int
}

// SweepScenarios evaluates the algorithm under every scenario of the suite
// at (a sample of) every ESS grid cell and aggregates per regime, in
// canonical regime order. Each (scenario, location) evaluation is a full
// guarded run — fault injection, budget cut-off, escape fallback, retry
// ladder — so the summaries report the operational robustness of the
// strategy, not just its clean-path cost. maxLocations caps the
// per-scenario location sample (0 = exhaustive); the sample is shared
// across scenarios and algorithms (Options.SweepSeed), so strategies are
// compared on identical ground truth.
func (s *Session) SweepScenarios(ctx context.Context, a Algorithm, suite []Scenario, maxLocations int) ([]RegimeSummary, error) {
	if len(suite) == 0 {
		return nil, fmt.Errorf("repro: empty scenario suite")
	}
	results, err := s.scenarioSweep(ctx, a, suite, maxLocations)
	if err != nil {
		return nil, fmt.Errorf("repro: scenario sweep aborted: %w", err)
	}
	out := make([]RegimeSummary, len(results))
	for i, r := range results {
		out[i] = RegimeSummary{
			Regime: r.Regime, Algorithm: a, Scenarios: r.Scenarios,
			MSO: r.MSO, ASO: r.ASO, Locations: r.Locations,
			GuardVerdicts: r.Guard, Degraded: r.Degraded, Skipped: r.Skipped,
		}
		if r.MSOCell >= 0 {
			out[i].WorstLocation = s.space.Grid.Location(r.MSOCell)
		}
	}
	return out, nil
}

// scenarioSweep runs the algorithm under every scenario of the suite at (a
// sample of) every grid cell, one full guarded run per (scenario,
// location), and aggregates per regime.
func (s *Session) scenarioSweep(ctx context.Context, a Algorithm, suite []Scenario, maxLocations int) ([]*metrics.RegimeResult, error) {
	regimeOf := make([]string, len(suite))
	for i, sc := range suite {
		regimeOf[i] = sc.Regime
	}
	run := func(idx int, truth Location) metrics.ScenarioOutcome {
		res, err := s.runFull(WithFaults(ctx, &suite[idx].Faults), a, truth, nil, nil, nil)
		if err != nil {
			if faults.IsCrash(err) {
				// The crash left a partial (but real) ledger: account the
				// spend and record the verdict; recovery is ResumeRun's job.
				return metrics.ScenarioOutcome{
					TotalCost: res.TotalCost, GuardVerdict: "crashed", Degraded: res.Degraded,
				}
			}
			// Unaccountable (cancellation or an unexpected terminal error):
			// exclude the unit from the aggregates.
			return metrics.ScenarioOutcome{Skip: true}
		}
		return metrics.ScenarioOutcome{
			TotalCost: res.TotalCost, GuardVerdict: res.GuardVerdict, Degraded: res.Degraded,
		}
	}
	return metrics.ScenarioSweepContext(ctx, s.space, regimeOf, run, metrics.SweepOptions{
		MaxLocations: maxLocations,
		Seed:         s.opts.sweepSeed(),
		Workers:      s.opts.workers(),
	})
}

// Atlas computes the per-regime robustness atlas of a 2D session: for every
// requested algorithm and every regime of the suite, a map of the worst
// sub-optimality observed at each grid cell across the regime's scenarios,
// overlaid with the guardrail interventions that occurred there — the
// Graefe-style robustness map ("Visualizing the robustness of query
// execution", PAPERS.md) extended with the runtime-guard dimension.
// maxLocations caps the per-scenario cell sample (0 = exhaustive); unswept
// cells render as unknown. Render the result with viz.AtlasSVG / AtlasJSON,
// or serve it from the daemon at GET /v1/atlas.
func (s *Session) Atlas(ctx context.Context, algos []Algorithm, suite []Scenario, maxLocations int) (*viz.Atlas, error) {
	if s.D() != 2 {
		return nil, fmt.Errorf("repro: the robustness atlas needs a 2D session, have %dD", s.D())
	}
	if len(algos) == 0 {
		algos = defaultAtlasAlgorithms()
	}
	if len(suite) == 0 {
		return nil, fmt.Errorf("repro: empty scenario suite")
	}
	name := s.query.Name
	if name == "" {
		name = s.query.String()
	}
	g := s.space.Grid
	atlas := &viz.Atlas{
		Query:   name,
		NX:      g.Res(0),
		NY:      g.Res(1),
		SelX:    append([]float64(nil), g.Points[0]...),
		SelY:    append([]float64(nil), g.Points[1]...),
		Regimes: Regimes(),
	}
	for _, a := range algos {
		results, err := s.scenarioSweep(ctx, a, suite, maxLocations)
		if err != nil {
			return nil, fmt.Errorf("repro: atlas sweep aborted: %w", err)
		}
		for _, r := range results {
			m := viz.AtlasMap{
				Algorithm: a.String(), Regime: r.Regime,
				MSO: r.MSO, ASO: r.ASO,
				Guard: r.Guard, Degraded: r.Degraded,
				SubOpt:  make([]float64, g.Size()),
				Verdict: make([]string, g.Size()),
			}
			for i, ci := range r.Cells {
				m.SubOpt[ci] = r.SubOpt[i]
				m.Verdict[ci] = r.Verdict[i]
			}
			atlas.Maps = append(atlas.Maps, m)
		}
	}
	return atlas, nil
}

// defaultAtlasAlgorithms is the atlas's default row set: the paper's
// discovery trio in their canonical order, followed by every other
// registered non-baseline strategy (the selection family, external
// registrations) sorted by name — so new strategies grow atlas rows
// without callers naming them.
func defaultAtlasAlgorithms() []Algorithm {
	algos := []Algorithm{PlanBouquet, SpillBound, AlignedBound}
	listed := map[Algorithm]bool{Native: true, PlanBouquet: true, SpillBound: true, AlignedBound: true}
	for _, name := range StrategyNames() {
		if a := Algorithm(name); !listed[a] {
			algos = append(algos, a)
		}
	}
	return algos
}
