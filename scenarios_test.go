package repro

import (
	"context"
	"math"
	"strings"
	"testing"
)

func TestScenarioSuitePublicAPI(t *testing.T) {
	suite := ScenarioSuite(42, 2)
	if len(suite) != 6 {
		t.Fatalf("suite size %d, want 6", len(suite))
	}
	counts := map[string]int{}
	for _, sc := range suite {
		counts[sc.Regime]++
		got, ok := ScenarioByName(42, sc.Name)
		if !ok || got != sc {
			t.Errorf("ScenarioByName(%q) = %+v, %v; want %+v", sc.Name, got, ok, sc)
		}
	}
	for _, r := range Regimes() {
		if counts[r] != 2 {
			t.Errorf("regime %s: %d scenarios, want 2", r, counts[r])
		}
	}
	if _, ok := ScenarioByName(42, "chaotic-1"); ok {
		t.Error("unknown scenario name resolved")
	}
	// The canonical drills the replay harness relies on.
	if sc, _ := ScenarioByName(42, "adversarial-1"); sc.Faults.SkewLearnedFactor < 1e6 {
		t.Errorf("adversarial-1 is not escape-scale skew: %+v", sc.Faults)
	}
	if sc, _ := ScenarioByName(42, "regret-correlated-1"); sc.Faults.BudgetOverrun <= 1 {
		t.Errorf("regret-correlated-1 has no budget overrun: %+v", sc.Faults)
	}
}

// TestSweepScenariosAcrossAlgorithms is the tentpole acceptance check: one
// seeded suite drives per-regime MSO/ASO for all three q-error regimes
// across every robust strategy and a selection strategy, from a single
// harness, and the guard-verdict census records the pinned drills.
func TestSweepScenariosAcrossAlgorithms(t *testing.T) {
	sess := newTestSession(t)
	suite := ScenarioSuite(42, 2)
	want := Regimes()
	for _, a := range []Algorithm{PlanBouquet, SpillBound, AlignedBound, "penaltyaware"} {
		summaries, err := sess.SweepScenarios(context.Background(), a, suite, 8)
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		if len(summaries) != 3 {
			t.Fatalf("%v: %d regime summaries, want 3", a, len(summaries))
		}
		var escapes int
		for i, rs := range summaries {
			if rs.Regime != want[i] {
				t.Errorf("%v: regime[%d] = %s, want %s", a, i, rs.Regime, want[i])
			}
			if rs.Algorithm != a || rs.Scenarios != 2 {
				t.Errorf("%v/%s: algorithm/scenario bookkeeping: %+v", a, rs.Regime, rs)
			}
			if rs.Locations == 0 || math.IsInf(rs.MSO, 0) || math.IsNaN(rs.MSO) ||
				rs.MSO < 1 || rs.ASO < 1 || rs.MSO < rs.ASO {
				t.Errorf("%v/%s: implausible aggregates MSO=%g ASO=%g locations=%d",
					a, rs.Regime, rs.MSO, rs.ASO, rs.Locations)
			}
			if rs.MSO > 1 && rs.WorstLocation == nil {
				t.Errorf("%v/%s: missing worst location", a, rs.Regime)
			}
			// regret-correlated-1 always overruns its budgets, so the
			// watchdog must abort for a discovery and a selection strategy;
			// adversarial-1 skews monitoring past the ESS boundary.
			if rs.Regime == RegimeCorrelated && (a == SpillBound || a == "penaltyaware") &&
				rs.GuardVerdicts["budget_abort"] == 0 {
				t.Errorf("%v/%s: no budget_abort censused", a, rs.Regime)
			}
			if rs.Regime == RegimeAdversarial && a == SpillBound && rs.GuardVerdicts["ess_escape"] == 0 {
				t.Errorf("%v/%s: no ess_escape censused", a, rs.Regime)
			}
			escapes += rs.GuardVerdicts["ess_escape"]
		}
		// The escape guardrail must fire for the spill-monitoring
		// strategies. PlanBouquet never spills and the selection family has
		// no spill monitoring — learned-selectivity skew is inert there.
		if (a == SpillBound || a == AlignedBound) && escapes == 0 {
			t.Errorf("%v: no ess_escape interventions across the suite", a)
		}
	}
}

func TestSweepScenariosRejectsEmptySuite(t *testing.T) {
	sess := newTestSession(t)
	if _, err := sess.SweepScenarios(context.Background(), SpillBound, nil, 4); err == nil {
		t.Error("empty suite accepted")
	}
}

func TestSessionAtlas(t *testing.T) {
	sess := newTestSession(t)
	suite := ScenarioSuite(7, 1)
	atlas, err := sess.Atlas(context.Background(), []Algorithm{PlanBouquet, SpillBound}, suite, 6)
	if err != nil {
		t.Fatal(err)
	}
	if atlas.NX != 10 || atlas.NY != 10 {
		t.Errorf("atlas grid %dx%d, want 10x10", atlas.NX, atlas.NY)
	}
	if len(atlas.Maps) != 2*3 {
		t.Fatalf("%d maps, want 6 (2 algorithms x 3 regimes)", len(atlas.Maps))
	}
	for _, m := range atlas.Maps {
		if len(m.SubOpt) != 100 || len(m.Verdict) != 100 {
			t.Fatalf("%s/%s: per-cell layers sized %d/%d, want 100",
				m.Algorithm, m.Regime, len(m.SubOpt), len(m.Verdict))
		}
	}
	svg := atlas.SVG()
	if !strings.Contains(svg, "robustness atlas") || !strings.Contains(svg, "</svg>") {
		t.Error("SVG render incomplete")
	}
	if b, err := atlas.JSON(); err != nil || len(b) == 0 {
		t.Errorf("JSON render failed: %v", err)
	}
	// The atlas is a 2D artifact.
	sess3, err := NewBenchmarkSession(Q91Benchmark(3), func() Options {
		o := BenchmarkOptions()
		o.GridRes = 4
		return o
	}())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess3.Atlas(context.Background(), nil, suite, 2); err == nil {
		t.Error("3D atlas accepted")
	}
}
