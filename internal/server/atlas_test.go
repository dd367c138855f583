package server

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

func TestAtlasEndpoint(t *testing.T) {
	ts := testServer(t)
	id := createSession(t, ts.URL, map[string]any{"query": "2D_EQ", "gridRes": 6})

	var atlas struct {
		Query   string   `json:"query"`
		NX      int      `json:"nx"`
		NY      int      `json:"ny"`
		Regimes []string `json:"regimes"`
		Maps    []struct {
			Algorithm string    `json:"algorithm"`
			Regime    string    `json:"regime"`
			MSO       float64   `json:"mso"`
			SubOpt    []float64 `json:"subopt"`
			Verdict   []string  `json:"verdict"`
		} `json:"maps"`
	}
	resp := getJSON(t, ts.URL+"/v1/atlas?session="+id+"&strategies=spillbound&seed=5&max=9", &atlas)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("atlas status %d", resp.StatusCode)
	}
	if atlas.NX != 6 || atlas.NY != 6 || len(atlas.Regimes) != 3 {
		t.Fatalf("atlas shape: %dx%d regimes=%v", atlas.NX, atlas.NY, atlas.Regimes)
	}
	if atlas.Query != "2D_EQ" {
		t.Errorf("atlas query label = %q, want the benchmark name 2D_EQ", atlas.Query)
	}
	if len(atlas.Maps) != 3 {
		t.Fatalf("%d maps, want 3 (one algorithm x three regimes)", len(atlas.Maps))
	}
	escapes := 0
	for _, m := range atlas.Maps {
		if m.Algorithm != "spillbound" || len(m.SubOpt) != 36 || len(m.Verdict) != 36 {
			t.Fatalf("map shape off: %+v", m)
		}
		if m.MSO < 1 {
			t.Errorf("%s: MSO %g < 1", m.Regime, m.MSO)
		}
		for _, v := range m.Verdict {
			if v == "ess_escape" {
				escapes++
			}
		}
	}
	if escapes == 0 {
		t.Error("no ess_escape overlay anywhere; adversarial-1 should force escapes")
	}

	svgResp, err := http.Get(ts.URL + "/v1/atlas?session=" + id + "&strategies=spillbound&max=4&format=svg")
	if err != nil {
		t.Fatal(err)
	}
	defer svgResp.Body.Close()
	body, _ := io.ReadAll(svgResp.Body)
	if svgResp.StatusCode != http.StatusOK {
		t.Fatalf("svg status %d: %s", svgResp.StatusCode, body)
	}
	if ct := svgResp.Header.Get("Content-Type"); ct != "image/svg+xml" {
		t.Errorf("svg content type %q", ct)
	}
	if !strings.HasPrefix(string(body), "<svg ") || !strings.Contains(string(body), "robustness atlas") {
		t.Errorf("svg body malformed: %.120s", body)
	}
}

func TestAtlasEndpointValidation(t *testing.T) {
	ts := testServer(t)
	id := createSession(t, ts.URL, map[string]any{"query": "2D_EQ", "gridRes": 6})
	cases := []struct {
		url    string
		status int
		code   string
	}{
		{"/v1/atlas", http.StatusBadRequest, "bad_request"},
		{"/v1/atlas?session=nope", http.StatusNotFound, "not_found"},
		{"/v1/atlas?session=" + id + "&strategies=quantum", http.StatusBadRequest, "unknown_strategy"},
		{"/v1/atlas?session=" + id + "&strategies=SpillBound", http.StatusBadRequest, "unknown_strategy"},
		{"/v1/atlas?session=" + id + "&seed=x", http.StatusBadRequest, "bad_request"},
		{"/v1/atlas?session=" + id + "&perRegime=99", http.StatusBadRequest, "bad_request"},
		{"/v1/atlas?session=" + id + "&max=-1", http.StatusBadRequest, "bad_request"},
		{"/v1/atlas?session=" + id + "&format=png", http.StatusBadRequest, "bad_request"},
	}
	for _, tc := range cases {
		var body map[string]any
		resp := getJSON(t, ts.URL+tc.url, &body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%v)", tc.url, resp.StatusCode, tc.status, body)
			continue
		}
		if code, _ := errEnvelope(t, body); code != tc.code {
			t.Errorf("%s: code %q, want %q", tc.url, code, tc.code)
		}
	}
	// Non-2D sessions cannot be mapped.
	id3 := createSession(t, ts.URL, map[string]any{"query": "3D_Q91", "gridRes": 4})
	var body map[string]any
	resp := getJSON(t, ts.URL+"/v1/atlas?session="+id3, &body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("3D atlas status %d, want 400", resp.StatusCode)
	}
}

func TestRunWithScenario(t *testing.T) {
	ts := testServer(t)
	id := createSession(t, ts.URL, map[string]any{"query": "2D_EQ", "gridRes": 6})

	// adversarial-1 is escape-scale monitoring skew for every seed: a
	// spillbound run must complete via the safe path with the verdict on the
	// wire and the scenario echoed.
	resp, out := postJSON(t, ts.URL+"/v1/sessions/"+id+"/run", map[string]any{
		"strategy": "spillbound", "truth": []float64{0.02, 0.3},
		"scenario": "adversarial-1", "scenarioSeed": 7,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scenario run status %d: %v", resp.StatusCode, out)
	}
	if out["guardVerdict"] != "ess_escape" {
		t.Errorf("guardVerdict = %v, want ess_escape", out["guardVerdict"])
	}
	if out["scenario"] != "adversarial-1" {
		t.Errorf("scenario echo = %v", out["scenario"])
	}

	// regret-correlated-1 always overruns budgets: the watchdog must abort.
	resp, out = postJSON(t, ts.URL+"/v1/sessions/"+id+"/run", map[string]any{
		"strategy": "spillbound", "truth": []float64{0.02, 0.3},
		"scenario": "regret-correlated-1",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scenario run status %d: %v", resp.StatusCode, out)
	}
	if out["guardVerdict"] != "budget_abort" {
		t.Errorf("guardVerdict = %v, want budget_abort", out["guardVerdict"])
	}

	// Unknown scenario names are a client error.
	resp, out = postJSON(t, ts.URL+"/v1/sessions/"+id+"/run", map[string]any{
		"strategy": "spillbound", "truth": []float64{0.02, 0.3}, "scenario": "chaotic-1",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown scenario status %d: %v", resp.StatusCode, out)
	}
	if code, _ := errEnvelope(t, out); code != "bad_request" {
		t.Errorf("code %q", code)
	}

	// Clean runs stay clean: no verdict, no scenario echo.
	resp, out = postJSON(t, ts.URL+"/v1/sessions/"+id+"/run", map[string]any{
		"strategy": "spillbound", "truth": []float64{0.02, 0.3},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clean run status %d: %v", resp.StatusCode, out)
	}
	if _, present := out["guardVerdict"]; present {
		t.Errorf("clean run carries guardVerdict: %v", out["guardVerdict"])
	}
}
