package repro

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/viz"
)

// This file exposes the error-regime scenario machinery: seeded scenario
// suites sweeping the three q-error regimes (benign, regret-correlated,
// adversarial — see PAPERS.md "When Does q-error Predict Plan Regret?"),
// and the Graefe-style robustness atlas built from per-regime sweeps with a
// guardrail-intervention census.
// A scenario composes the fault knobs (SkewLearnedAt/Factor, Latency,
// BudgetOverrun, exec failures, crash points) into a deterministic,
// replayable plan.

// The three error regimes, as reported by Scenario.Regime.
const (
	// regimeBenign: estimation error present, plan regret absent.
	regimeBenign = "benign"
	// regimeCorrelated: damage proportional to the error magnitude (budget
	// overruns; the budget cut-off's regime).
	regimeCorrelated = "regret-correlated"
	// regimeAdversarial: damage decoupled from the error magnitude (ESS
	// escapes, transient failures, checkpoint crashes).
	regimeAdversarial = "adversarial"
)

// regimes returns the regime labels in canonical sweep order. A regime's
// index in this order seeds its scenarios' random streams.
func regimes() []string {
	return []string{regimeBenign, regimeCorrelated, regimeAdversarial}
}

// Scenario is one named error-regime composition of fault knobs.
type Scenario struct {
	// Name is "<regime>-<n>", unique within a suite.
	Name string
	// Regime is the scenario's error regime: "benign", "regret-correlated"
	// or "adversarial".
	Regime string
	// Faults is the fault composition applied to every run under the
	// scenario (a fresh injection plan is instantiated per run).
	Faults FaultPlan
}

// ScenarioSuite generates perRegime scenarios for each of the three q-error
// regimes, deterministically from the seed. Knob values depend only on
// (seed, regime, index), so suites of different sizes agree on their common
// scenarios. Scenario classes within a regime follow a fixed rotation, so
// the leading scenario of each regime has a pinned fault class:
//
//   - benign-1..n: within-ESS monitoring skew (factor in [1/4, 4]); every
//     third adds injection latency.
//   - regret-correlated-1..n: a budget overrun whose factor grows with the
//     scenario's drawn error, composed with moderate skew on every second.
//     "regret-correlated-1" always overruns budgets (budget-abort drill).
//   - adversarial-1 (and every odd n): escape-scale skew driving the
//     learned selectivity past the ESS boundary (escape drill).
//     adversarial-2 (and every even n) alternates transient exec-failure
//     bursts with checkpoint crashes (crash knobs only fire on durable runs;
//     elsewhere they are inert).
func ScenarioSuite(seed int64, perRegime int) []Scenario {
	if perRegime < 1 {
		perRegime = 1
	}
	var out []Scenario
	for r, regime := range regimes() {
		for i := 0; i < perRegime; i++ {
			out = append(out, newScenario(seed, r, i, fmt.Sprintf("%s-%d", regime, i+1)))
		}
	}
	return out
}

// ScenarioByName derives the named scenario "<regime>-<n>" from the seed
// ("adversarial-2" resolves identically in every process using the same
// seed) — the lookup backing the daemon's scenario-tagged run requests. It
// costs the same for every n: only the named scenario is drawn. Names
// ScenarioSuite would not produce (n < 1, a sign, leading zeros) resolve to
// nothing.
func ScenarioByName(seed int64, name string) (Scenario, bool) {
	for r, regime := range regimes() {
		if len(name) <= len(regime) || name[:len(regime)] != regime || name[len(regime)] != '-' {
			continue
		}
		digits := name[len(regime)+1:]
		n, err := strconv.Atoi(digits)
		if err != nil || digits[0] < '1' || digits[0] > '9' {
			return Scenario{}, false
		}
		return newScenario(seed, r, n-1, name), true
	}
	return Scenario{}, false
}

// newScenario draws the i-th (0-based) scenario of the regime at index r of
// regimes(). Its random stream derives from (seed, r, i) alone, so a
// scenario's knobs are identical regardless of the suite size it was
// generated in — "adversarial-1" means the same faults in a 1-per-regime
// drill and a 10-per-regime atlas sweep. The class rotation is a function
// of i alone, so suites of different sizes agree on their leading
// scenarios' classes.
func newScenario(seed int64, r, i int, name string) Scenario {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(r)*8191 + int64(i)*31 + 7))
	sc := Scenario{Name: name, Regime: regimes()[r]}
	k := &sc.Faults
	switch sc.Regime {
	case regimeBenign:
		// Skew that stays well inside the unit selectivity range: the
		// monitoring observation is wrong but the discovery still converges
		// on a competitive plan (q-error without regret).
		k.SkewLearnedAt = 1 + rng.Intn(3)
		k.SkewLearnedFactor = 0.25 + rng.Float64()*3.75
		if i%3 == 2 {
			k.Latency = time.Duration(1+rng.Intn(3)) * time.Millisecond
		}
	case regimeCorrelated:
		// Damage proportional to the drawn error: the overrun factor is the
		// error, so bigger error means bigger charged cost until the engine
		// cuts the execution off at its budget.
		k.BudgetOverrun = 1.3 + rng.Float64()*1.7
		if i%2 == 1 {
			k.SkewLearnedAt = 1 + rng.Intn(2)
			k.SkewLearnedFactor = 2 + rng.Float64()*6
		}
	case regimeAdversarial:
		switch {
		case i%2 == 0:
			// Escape-scale skew: any positive observation is pushed past 1,
			// outside the enumerated space — the guard's safe-path fallback
			// must complete the run (regret decoupled from error size).
			k.SkewLearnedAt = 1 + rng.Intn(3)
			k.SkewLearnedFactor = 1e6 * (1 + rng.Float64()*1e6)
		case i%4 == 1:
			// Transient failure burst: exec errors the retry ladder must
			// absorb (or degrade past).
			k.FailExecAt = 1 + rng.Intn(3)
			k.FailExecCount = 1 + rng.Intn(3)
		default:
			// Checkpoint crash: the process "dies" at a contour boundary.
			// Only durable runs observe checkpoints, so this knob is inert
			// on plain runs — replay drills pair it with durable requests.
			k.CrashAtCheckpoint = 1 + rng.Intn(2)
		}
	}
	return sc
}

// scenarioSweep runs the algorithm under every scenario of the suite at (a
// sample of) every grid cell and aggregates per regime, in canonical regime
// order. Each (scenario, location) evaluation is a full guarded run — fault
// injection, budget cut-off, escape fallback, retry ladder — so the results
// report the operational robustness of the strategy, not just its
// clean-path cost. maxLocations caps the per-scenario location sample (0 =
// exhaustive); the sample is shared across scenarios and algorithms
// (Options.SweepSeed), so strategies are compared on identical ground truth.
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
		Regimes: regimes(),
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
// non-baseline strategy (the selection family) sorted by name.
func defaultAtlasAlgorithms() []Algorithm {
	algos := []Algorithm{PlanBouquet, SpillBound, AlignedBound}
	listed := map[Algorithm]bool{Native: true, PlanBouquet: true, SpillBound: true, AlignedBound: true}
	for _, name := range strategyNames() {
		if a := Algorithm(name); !listed[a] {
			algos = append(algos, a)
		}
	}
	return algos
}
