package repro

import (
	"context"
	"math"
	"strconv"
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
	for _, r := range regimes() {
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

func TestScenarioSuiteDeterministicAndComplete(t *testing.T) {
	a := ScenarioSuite(7, 3)
	b := ScenarioSuite(7, 3)
	if len(a) != 9 {
		t.Fatalf("suite size %d, want 9", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("scenario %d differs across identical seeds: %+v vs %+v", i, a[i], b[i])
		}
	}
	counts := map[string]int{}
	for _, sc := range a {
		counts[sc.Regime]++
	}
	for _, r := range regimes() {
		if counts[r] != 3 {
			t.Errorf("regime %s has %d scenarios, want 3", r, counts[r])
		}
	}
	if c := ScenarioSuite(8, 3); c[0] == a[0] && c[4] == a[4] {
		t.Error("different seeds produced identical suites")
	}
}

func TestScenarioSuitePrefixStableAcrossSizes(t *testing.T) {
	big := map[string]Scenario{}
	for _, sc := range ScenarioSuite(1, 5) {
		big[sc.Name] = sc
	}
	for _, sc := range ScenarioSuite(1, 1) {
		other, ok := big[sc.Name]
		if !ok {
			t.Errorf("%s missing from the larger suite", sc.Name)
		} else if other != sc {
			t.Errorf("%s differs between suite sizes: %+v vs %+v", sc.Name, sc, other)
		}
	}
}

func TestCanonicalScenarioClasses(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		for _, sc := range ScenarioSuite(seed, 4) {
			k := sc.Faults
			switch sc.Regime {
			case regimeBenign:
				if k.BudgetOverrun > 0 || k.SkewLearnedFactor > 4 || k.CrashAtCheckpoint > 0 {
					t.Errorf("seed %d: benign scenario with non-benign knobs: %+v", seed, sc)
				}
				if k.SkewLearnedAt == 0 {
					t.Errorf("seed %d: benign scenario without skew: %+v", seed, sc)
				}
			case regimeCorrelated:
				if k.BudgetOverrun <= 1 {
					t.Errorf("seed %d: correlated scenario without overrun: %+v", seed, sc)
				}
			case regimeAdversarial:
				if k.SkewLearnedFactor < 1e6 && k.FailExecAt == 0 && k.CrashAtCheckpoint == 0 {
					t.Errorf("seed %d: adversarial scenario without adversarial knobs: %+v", seed, sc)
				}
			}
		}
		// The canonical leads every drill relies on: adversarial-1 is always
		// escape-scale skew, regret-correlated-1 always overruns.
		if sc, _ := ScenarioByName(seed, "adversarial-1"); sc.Faults.SkewLearnedFactor < 1e6 {
			t.Errorf("seed %d: adversarial-1 is not escape-scale skew: %+v", seed, sc)
		}
		if sc, _ := ScenarioByName(seed, "regret-correlated-1"); sc.Faults.BudgetOverrun <= 1 {
			t.Errorf("seed %d: regret-correlated-1 has no budget overrun: %+v", seed, sc)
		}
	}
}

func TestScenarioByName(t *testing.T) {
	for _, sc := range ScenarioSuite(3, 2) {
		got, ok := ScenarioByName(3, sc.Name)
		if !ok || got != sc {
			t.Errorf("ScenarioByName(%q) = %+v, %v; want %+v", sc.Name, got, ok, sc)
		}
	}
	for _, bad := range []string{"", "benign", "benign-0", "benign-01", "chaotic-1", "adversarial--1", "adversarial-+1"} {
		if _, ok := ScenarioByName(3, bad); ok {
			t.Errorf("ScenarioByName(%q) unexpectedly resolved", bad)
		}
	}
}

// TestScenarioByNameAllocs pins the lookup's cost: a name is resolved by
// drawing that one scenario, not by generating the suite up to it, so a
// request naming a far index costs no more than one naming the first.
func TestScenarioByNameAllocs(t *testing.T) {
	var sc Scenario
	allocs := testing.AllocsPerRun(20, func() {
		sc, _ = ScenarioByName(1, "benign-20000")
	})
	if sc.Name != "benign-20000" {
		t.Fatalf("benign-20000 did not resolve: %+v", sc)
	}
	if allocs > 8 {
		t.Errorf("ScenarioByName(1, \"benign-20000\") makes %.0f allocations, want at most 8", allocs)
	}
}

// FuzzScenarioByName checks the lookup on arbitrary names: it never
// panics, a resolved name is returned as given, and for small indices the
// result equals the suite's entry of that name.
func FuzzScenarioByName(f *testing.F) {
	for _, name := range scenarioGoldenNames {
		f.Add(int64(1), name)
	}
	f.Add(int64(-3), "regret-correlated-64")
	f.Add(int64(408), "adversarial-9223372036854775807")
	f.Fuzz(func(t *testing.T, seed int64, name string) {
		sc, ok := ScenarioByName(seed, name)
		if !ok {
			return
		}
		if sc.Name != name {
			t.Fatalf("ScenarioByName(%d, %q).Name = %q", seed, name, sc.Name)
		}
		n, err := strconv.Atoi(name[len(sc.Regime)+1:])
		if err != nil {
			t.Fatalf("resolved %q has no index: %v", name, err)
		}
		if n > 64 {
			return
		}
		for _, want := range ScenarioSuite(seed, n) {
			if want.Name == name {
				if sc != want {
					t.Fatalf("ScenarioByName(%d, %q) = %+v, suite has %+v", seed, name, sc, want)
				}
				return
			}
		}
		t.Fatalf("resolved %q is not in ScenarioSuite(%d, %d)", name, seed, n)
	})
}

// TestSweepScenariosAcrossAlgorithms checks the scenario sweep the atlas
// runs: one seeded suite drives per-regime MSO/ASO for all three q-error
// regimes across every robust strategy and a selection strategy, from a
// single harness, and the guard-verdict census records the pinned drills.
func TestSweepScenariosAcrossAlgorithms(t *testing.T) {
	sess := newTestSession(t)
	suite := ScenarioSuite(42, 2)
	want := regimes()
	for _, a := range []Algorithm{PlanBouquet, SpillBound, AlignedBound, "penaltyaware"} {
		summaries, err := sess.scenarioSweep(context.Background(), a, suite, 8)
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
			if rs.Scenarios != 2 {
				t.Errorf("%v/%s: scenario bookkeeping: %+v", a, rs.Regime, rs)
			}
			if rs.Locations == 0 || math.IsInf(rs.MSO, 0) || math.IsNaN(rs.MSO) ||
				rs.MSO < 1 || rs.ASO < 1 || rs.MSO < rs.ASO {
				t.Errorf("%v/%s: implausible aggregates MSO=%g ASO=%g locations=%d",
					a, rs.Regime, rs.MSO, rs.ASO, rs.Locations)
			}
			if rs.MSO > 1 && rs.MSOCell < 0 {
				t.Errorf("%v/%s: missing worst location", a, rs.Regime)
			}
			// regret-correlated-1 always overruns its budgets, so the
			// watchdog must abort for a discovery and a selection strategy;
			// adversarial-1 skews monitoring past the ESS boundary.
			if rs.Regime == regimeCorrelated && (a == SpillBound || a == "penaltyaware") &&
				rs.Guard["budget_abort"] == 0 {
				t.Errorf("%v/%s: no budget_abort censused", a, rs.Regime)
			}
			if rs.Regime == regimeAdversarial && a == SpillBound && rs.Guard["ess_escape"] == 0 {
				t.Errorf("%v/%s: no ess_escape censused", a, rs.Regime)
			}
			escapes += rs.Guard["ess_escape"]
		}
		// The escape guardrail must fire for the spill-monitoring
		// strategies. PlanBouquet never spills and the selection family has
		// no spill monitoring — learned-selectivity skew is inert there.
		if (a == SpillBound || a == AlignedBound) && escapes == 0 {
			t.Errorf("%v: no ess_escape interventions across the suite", a)
		}
	}
}

// TestSweepScenariosRejectsEmptySuite checks that the atlas, the scenario
// sweep's caller, rejects a suite with no scenarios.
func TestSweepScenariosRejectsEmptySuite(t *testing.T) {
	sess := newTestSession(t)
	if _, err := sess.Atlas(context.Background(), []Algorithm{SpillBound}, nil, 4); err == nil {
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
	sess3, err := NewBenchmarkSession(benchmarkQuery(t, "3D_Q91"), func() Options {
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

// TestBenchmarkAtlasNamed checks that a benchmark session labels its atlas
// with the benchmark's name, not the SQL its query was parsed from.
func TestBenchmarkAtlasNamed(t *testing.T) {
	bq, ok := BenchmarkQueryByName("2D_EQ")
	if !ok {
		t.Fatal("2D_EQ is not a benchmark query")
	}
	opts := BenchmarkOptions()
	opts.GridRes = 4
	sess, err := NewBenchmarkSession(bq, opts)
	if err != nil {
		t.Fatal(err)
	}
	atlas, err := sess.Atlas(context.Background(), []Algorithm{SpillBound}, ScenarioSuite(7, 1), 2)
	if err != nil {
		t.Fatal(err)
	}
	if atlas.Query != bq.Name {
		t.Errorf("atlas query label = %q, want the benchmark name %q", atlas.Query, bq.Name)
	}
}
