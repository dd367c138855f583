package repro

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// scenarioGoldenDoc pins the error-regime suite generator: whole suites at
// a few seeds, and ScenarioByName on valid names and on names it must
// reject.
type scenarioGoldenDoc struct {
	Suites  []scenarioGoldenSuite  `json:"suites"`
	Lookups []scenarioGoldenLookup `json:"lookups"`
}

type scenarioGoldenSuite struct {
	Seed      int64      `json:"seed"`
	PerRegime int        `json:"perRegime"`
	Scenarios []Scenario `json:"scenarios"`
}

type scenarioGoldenLookup struct {
	Seed     int64     `json:"seed"`
	Name     string    `json:"name"`
	Found    bool      `json:"found"`
	Scenario *Scenario `json:"scenario,omitempty"`
}

// scenarioGoldenSeeds are the suite seeds the golden pins: the drills' seed
// 1, the atlas default 7, the test suites' 42 and the serve bench's 408.
var scenarioGoldenSeeds = []int64{1, 7, 42, 408}

const scenarioGoldenPerRegime = 8

// scenarioGoldenNames are the looked-up names: every regime's lead, the
// drills' names, indices past the pinned suites, and malformed names.
var scenarioGoldenNames = []string{
	"benign-1", "regret-correlated-1", "adversarial-1",
	"benign-3", "regret-correlated-2", "adversarial-2", "adversarial-4", "adversarial-6",
	"benign-8", "regret-correlated-8", "adversarial-8",
	"benign-9", "regret-correlated-57", "adversarial-300", "benign-20000",
	"", "benign", "benign-", "benign-0", "benign-01", "benign-1x", "benign- 1",
	"adversarial--1", "adversarial-+1", "chaotic-1", "Benign-1", "regret-1",
	"benign-99999999999999999999",
}

func buildScenarioGolden() scenarioGoldenDoc {
	var doc scenarioGoldenDoc
	for _, seed := range scenarioGoldenSeeds {
		doc.Suites = append(doc.Suites, scenarioGoldenSuite{
			Seed: seed, PerRegime: scenarioGoldenPerRegime,
			Scenarios: ScenarioSuite(seed, scenarioGoldenPerRegime),
		})
		for _, name := range scenarioGoldenNames {
			l := scenarioGoldenLookup{Seed: seed, Name: name}
			if sc, ok := ScenarioByName(seed, name); ok {
				l.Found, l.Scenario = true, &sc
			}
			doc.Lookups = append(doc.Lookups, l)
		}
	}
	return doc
}

// TestScenarioGolden pins every generated scenario byte for byte against
// testdata/scenario_golden.json (-update re-records it): a scenario name is
// a wire contract (drills and daemon requests name scenarios), so the
// faults it stands for must not drift.
func TestScenarioGolden(t *testing.T) {
	got, err := json.MarshalIndent(buildScenarioGolden(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "scenario_golden.json")
	if *updateStrategyGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if string(got) != string(want) {
		t.Fatalf("scenario suite drifted from %s; rerun with -update only if the change is intended", path)
	}
}
