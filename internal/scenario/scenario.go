// Package scenario generates seeded error-regime scenario suites: named
// compositions of fault knobs that sweep the three regimes of
// cardinality-estimation error identified by the q-error-regimes study
// (PAPERS.md, "When Does q-error Predict Plan Regret?"):
//
//   - benign: estimation error is present but does not translate into plan
//     regret — monitoring skew stays inside the ESS and plan choice is
//     stable, so discovery cost tracks the clean run.
//   - regret-correlated: the error magnitude predicts the damage — operators
//     overrun their assigned budgets proportionally and moderate skew
//     perturbs the discovery path, so cost grows with the error and the
//     budget watchdog is the guardrail under test.
//   - adversarial: regret is decoupled from the error magnitude — monitoring
//     produces selectivities the ESS cannot contain (the guard's escape
//     fallback fires), execution steps fail transiently, or the process dies
//     at a checkpoint; a small q-error says nothing about the blast radius.
//
// Scenarios compose the existing fault knobs (SkewLearnedAt/Factor, latency,
// BudgetOverrun, exec failures, crash points) into deterministic, replayable
// plans: identical (seed, perRegime) inputs yield identical suites, and the
// first scenario of every regime has a pinned fault class so drills (the
// replay harness, the robustness atlas) can rely on a specific guardrail
// firing.
package scenario

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/faults"
)

// Regime classifies a scenario by how its estimation error relates to plan
// regret (the three regimes of the q-error-regimes paper).
type Regime int

// The three error regimes, in sweep order.
const (
	// Benign error perturbs monitoring without changing plan quality.
	Benign Regime = iota
	// Correlated error causes damage proportional to its magnitude
	// (budget overruns; the watchdog's regime).
	Correlated
	// Adversarial error causes damage decoupled from its magnitude
	// (ESS escapes, transient failures, checkpoint crashes).
	Adversarial
)

// Regimes returns the regimes in canonical sweep order.
func Regimes() []Regime { return []Regime{Benign, Correlated, Adversarial} }

// String names the regime as reported in per-regime summaries.
func (r Regime) String() string {
	switch r {
	case Benign:
		return "benign"
	case Correlated:
		return "regret-correlated"
	case Adversarial:
		return "adversarial"
	}
	return fmt.Sprintf("Regime(%d)", int(r))
}

// ParseRegime resolves a regime name (as produced by String).
func ParseRegime(name string) (Regime, error) {
	for _, r := range Regimes() {
		if r.String() == name {
			return r, nil
		}
	}
	return 0, fmt.Errorf("scenario: unknown regime %q", name)
}

// Scenario is one named error-regime composition.
type Scenario struct {
	// Name is "<regime>-<n>" with n 1-based within the regime.
	Name string
	// Regime is the error regime the scenario exercises.
	Regime Regime
	// Knobs is the fault composition; instantiate with Knobs.Plan() per run.
	Knobs faults.Knobs
}

// Suite generates perRegime scenarios for each of the three regimes,
// deterministically from the seed. Scenario classes within a regime follow a
// fixed rotation so the first scenario of each regime is canonical:
//
//   - benign-1..n: within-ESS monitoring skew (factor in [1/4, 4]); every
//     third adds injection latency.
//   - regret-correlated-1..n: a budget overrun whose factor grows with the
//     scenario's drawn error, composed with moderate skew on every second.
//   - adversarial-1 (and every odd index): escape-scale skew driving the
//     learned selectivity past the ESS boundary. adversarial-2 (and every
//     even index) alternates transient exec-failure bursts with checkpoint
//     crashes (crash knobs only fire on durable runs; elsewhere they are
//     inert).
func Suite(seed int64, perRegime int) []Scenario {
	if perRegime < 1 {
		perRegime = 1
	}
	var out []Scenario
	for _, r := range Regimes() {
		for i := 0; i < perRegime; i++ {
			out = append(out, Scenario{
				Name:   fmt.Sprintf("%s-%d", r, i+1),
				Regime: r,
				Knobs:  knobsFor(r, i, scenarioRNG(seed, r, i)),
			})
		}
	}
	return out
}

// scenarioRNG derives the per-scenario random stream from (seed, regime,
// index) alone, so a scenario's knobs are identical regardless of the suite
// size it was generated in — "adversarial-1" means the same faults in a
// 1-per-regime drill and a 10-per-regime atlas sweep.
func scenarioRNG(seed int64, r Regime, i int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(r)*8191 + int64(i)*31 + 7))
}

// knobsFor draws one scenario's fault composition. i is the 0-based index
// within the regime; the class rotation is a function of i alone so suites
// of different sizes agree on their leading scenarios' classes.
func knobsFor(r Regime, i int, rng *rand.Rand) faults.Knobs {
	var k faults.Knobs
	switch r {
	case Benign:
		// Skew that stays well inside the unit selectivity range: the
		// monitoring observation is wrong but the discovery still converges
		// on a competitive plan (q-error without regret).
		k.SkewLearnedAt = 1 + rng.Intn(3)
		k.SkewLearnedFactor = 0.25 + rng.Float64()*3.75
		if i%3 == 2 {
			k.Latency = time.Duration(1+rng.Intn(3)) * time.Millisecond
		}
	case Correlated:
		// Damage proportional to the drawn error: the overrun factor is the
		// error, so bigger error means bigger charged cost until the watchdog
		// claws it back at the ceiling.
		err := 1.3 + rng.Float64()*1.7
		k.BudgetOverrun = err
		if i%2 == 1 {
			k.SkewLearnedAt = 1 + rng.Intn(2)
			k.SkewLearnedFactor = 2 + rng.Float64()*6
		}
	case Adversarial:
		switch i % 2 {
		case 0:
			// Escape-scale skew: any positive observation is pushed past 1,
			// outside the enumerated space — the guard's safe-path fallback
			// must complete the run (regret decoupled from error size).
			k.SkewLearnedAt = 1 + rng.Intn(3)
			k.SkewLearnedFactor = 1e6 * (1 + rng.Float64()*1e6)
		case 1:
			if i%4 == 1 {
				// Transient failure burst: exec errors the retry ladder must
				// absorb (or degrade past).
				k.FailExecAt = 1 + rng.Intn(3)
				k.FailExecCount = 1 + rng.Intn(3)
			} else {
				// Checkpoint crash: the process "dies" at a contour boundary.
				// Only durable runs observe checkpoints, so this knob is inert
				// on plain runs — replay drills pair it with durable requests.
				k.CrashAtCheckpoint = 1 + rng.Intn(2)
			}
		}
	}
	return k
}

// ByName regenerates the suite deterministically and returns the named
// scenario: the wire-friendly lookup used by the daemon's scenario-tagged
// run requests ("adversarial-1" resolves identically in every process with
// the same seed).
func ByName(seed int64, name string) (Scenario, bool) {
	var r Regime
	var n int
	found := false
	for _, reg := range Regimes() {
		var i int
		if _, err := fmt.Sscanf(name, reg.String()+"-%d", &i); err == nil && i >= 1 {
			r, n, found = reg, i, true
			break
		}
	}
	if !found {
		return Scenario{}, false
	}
	for _, sc := range Suite(seed, n) {
		if sc.Regime == r && sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}
