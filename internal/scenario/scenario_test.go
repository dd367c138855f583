package scenario

import (
	"testing"
)

func TestSuiteDeterministicAndComplete(t *testing.T) {
	a := Suite(7, 3)
	b := Suite(7, 3)
	if len(a) != 9 {
		t.Fatalf("suite size %d, want 9", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("scenario %d differs across identical seeds: %+v vs %+v", i, a[i], b[i])
		}
	}
	counts := map[Regime]int{}
	for _, sc := range a {
		counts[sc.Regime]++
	}
	for _, r := range Regimes() {
		if counts[r] != 3 {
			t.Errorf("regime %s has %d scenarios, want 3", r, counts[r])
		}
	}
	if c := Suite(8, 3); c[0] == a[0] && c[4] == a[4] {
		t.Error("different seeds produced identical suites")
	}
}

func TestSuitePrefixStableAcrossSizes(t *testing.T) {
	small := Suite(1, 1)
	big := Suite(1, 5)
	for _, sc := range small {
		found := false
		for _, other := range big {
			if other.Name == sc.Name {
				found = true
				if other != sc {
					t.Errorf("%s differs between suite sizes: %+v vs %+v", sc.Name, sc, other)
				}
			}
		}
		if !found {
			t.Errorf("%s missing from the larger suite", sc.Name)
		}
	}
}

func TestCanonicalScenarioClasses(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		suite := Suite(seed, 4)
		for _, sc := range suite {
			switch sc.Regime {
			case Benign:
				if sc.Knobs.BudgetOverrun > 0 || sc.Knobs.SkewLearnedFactor > 4 || sc.Knobs.CrashAtCheckpoint > 0 {
					t.Errorf("seed %d: benign scenario with non-benign knobs: %+v", seed, sc)
				}
				if sc.Knobs.SkewLearnedAt == 0 {
					t.Errorf("seed %d: benign scenario without skew: %+v", seed, sc)
				}
			case Correlated:
				if sc.Knobs.BudgetOverrun <= 1 {
					t.Errorf("seed %d: correlated scenario without overrun: %+v", seed, sc)
				}
			case Adversarial:
				hasFault := sc.Knobs.SkewLearnedFactor >= 1e6 || sc.Knobs.FailExecAt > 0 || sc.Knobs.CrashAtCheckpoint > 0
				if !hasFault {
					t.Errorf("seed %d: adversarial scenario without adversarial knobs: %+v", seed, sc)
				}
			}
		}
		// The canonical leads every drill relies on: adversarial-1 is always
		// escape-scale skew, regret-correlated-1 always overruns.
		if sc, _ := ByName(seed, "adversarial-1"); sc.Knobs.SkewLearnedFactor < 1e6 {
			t.Errorf("seed %d: adversarial-1 is not escape-scale skew: %+v", seed, sc)
		}
		if sc, _ := ByName(seed, "regret-correlated-1"); sc.Knobs.BudgetOverrun <= 1 {
			t.Errorf("seed %d: regret-correlated-1 has no budget overrun: %+v", seed, sc)
		}
	}
}

func TestByName(t *testing.T) {
	suite := Suite(3, 2)
	for _, sc := range suite {
		got, ok := ByName(3, sc.Name)
		if !ok {
			t.Fatalf("ByName(%q) not found", sc.Name)
		}
		if got != sc {
			t.Errorf("ByName(%q) = %+v, want %+v", sc.Name, got, sc)
		}
	}
	for _, bad := range []string{"", "benign", "benign-0", "chaotic-1", "adversarial--1"} {
		if _, ok := ByName(3, bad); ok {
			t.Errorf("ByName(%q) unexpectedly resolved", bad)
		}
	}
}

func TestParseRegime(t *testing.T) {
	for _, r := range Regimes() {
		got, err := ParseRegime(r.String())
		if err != nil || got != r {
			t.Errorf("ParseRegime(%q) = %v, %v", r.String(), got, err)
		}
	}
	if _, err := ParseRegime("nope"); err == nil {
		t.Error("ParseRegime accepted an unknown name")
	}
}
