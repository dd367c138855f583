package server

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"
)

// TestStrategiesListingGolden pins the exact bytes of GET /v1/strategies
// against testdata/strategies.json: the strategies in name order, each with
// its kind, guarantee formula, resumability and params.
func TestStrategiesListingGolden(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/v1/strategies")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "strategies.json"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
		t.Errorf("GET /v1/strategies = %d\n%s\nwant:\n%s", resp.StatusCode, got, want)
	}
}

// TestStrategiesEndpoint checks GET /v1/strategies lists every registered
// strategy with its kind and guarantee formula — the discovery trio, the
// native baseline and the selection family.
func TestStrategiesEndpoint(t *testing.T) {
	ts := testServer(t)
	var infos []struct {
		Name      string            `json:"name"`
		Kind      string            `json:"kind"`
		Guarantee string            `json:"guarantee"`
		Resumable bool              `json:"resumable"`
		Params    map[string]string `json:"params"`
	}
	resp := getJSON(t, ts.URL+"/v1/strategies", &infos)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	want := map[string]string{
		"native":        "baseline",
		"planbouquet":   "discovery",
		"spillbound":    "discovery",
		"alignedbound":  "discovery",
		"penaltyaware":  "selection",
		"probabilistic": "selection",
		"minmaxregret":  "selection",
	}
	got := map[string]string{}
	for _, in := range infos {
		got[in.Name] = in.Kind
		if in.Guarantee == "" {
			t.Errorf("%s: empty guarantee formula", in.Name)
		}
	}
	for name, kind := range want {
		if got[name] != kind {
			t.Errorf("%s: kind %q, want %q", name, got[name], kind)
		}
	}
}

// TestRunAndSweepSelectionStrategy runs and sweeps a selection strategy
// named through the "strategy" field and parameter; the response echoes the
// strategy under its "algorithm" field.
func TestRunAndSweepSelectionStrategy(t *testing.T) {
	ts := testServer(t)
	id := createSession(t, ts.URL, map[string]any{"query": "2D_EQ", "gridRes": 6})

	resp, body := postJSON(t, ts.URL+"/v1/sessions/"+id+"/run", map[string]any{
		"strategy": "minmaxregret", "truth": []float64{0.02, 0.3},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("strategy run status %d: %v", resp.StatusCode, body)
	}
	if body["algorithm"] != "minmaxregret" {
		t.Errorf("echoed strategy %v", body["algorithm"])
	}
	if cost, _ := body["totalCost"].(float64); cost <= 0 {
		t.Errorf("totalCost %v", body["totalCost"])
	}

	// The sweep handler shares the resolver.
	var sweep map[string]any
	if resp := getJSON(t, ts.URL+"/v1/sessions/"+id+"/sweep?strategy=probabilistic&max=9", &sweep); resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d: %v", resp.StatusCode, sweep)
	}
	if sweep["algorithm"] != "probabilistic" {
		t.Errorf("sweep strategy %v", sweep["algorithm"])
	}
	if mso, _ := sweep["mso"].(float64); mso < 1 {
		t.Errorf("sweep mso %v", sweep["mso"])
	}
}
