package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// scrape fetches /v1/metrics and parses the exposition, validating the
// format (HELP/TYPE lines, cumulative histogram buckets) as a side effect.
func scrape(t *testing.T, baseURL string) map[string]*telemetry.ParsedFamily {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type %q", ct)
	}
	fams, err := telemetry.ParseProm(resp.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	return fams
}

// sampleSum totals every sample of a family with the given sample name
// (""= the family's base name) whose labels contain all the key=value pairs.
func sampleSum(f *telemetry.ParsedFamily, name string, match map[string]string) float64 {
	if f == nil {
		return 0
	}
	if name == "" {
		name = f.Name
	}
	total := 0.0
	for _, s := range f.Samples {
		if s.Name != name {
			continue
		}
		ok := true
		for k, v := range match {
			if s.Labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			total += s.Value
		}
	}
	return total
}

func TestMetricsEndpointExposition(t *testing.T) {
	ts := testServer(t)

	for i := 0; i < 2; i++ {
		resp, err := http.Get(ts.URL + "/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	fams := scrape(t, ts.URL)
	for _, name := range []string{
		"rqp_requests_total", "rqp_request_duration_seconds",
		"rqp_runs_total", "rqp_suboptimality", "rqp_sessions",
	} {
		if _, ok := fams[name]; !ok {
			t.Errorf("exposition missing %s", name)
		}
	}
	if got := sampleSum(fams["rqp_requests_total"], "", map[string]string{"route": "GET /v1/healthz", "status": "2xx"}); got != 2 {
		t.Errorf("rqp_requests_total for GET /v1/healthz = %g, want 2", got)
	}
	// The latency histogram saw the healthz requests.
	if got := sampleSum(fams["rqp_request_duration_seconds"], "rqp_request_duration_seconds_count",
		map[string]string{"route": "GET /v1/healthz"}); got < 1 {
		t.Errorf("rqp_request_duration_seconds_count for GET /v1/healthz = %g, want >= 1", got)
	}
}

func TestRunAndSweepPopulateRunMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a real session")
	}
	ts := testServer(t)
	id := createSession(t, ts.URL, map[string]any{"query": "2D_EQ", "gridRes": 6})

	resp, body := postJSON(t, ts.URL+"/v1/sessions/"+id+"/run",
		map[string]any{"strategy": "spillbound", "truth": []float64{0.04, 0.1}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run status %d: %v", resp.StatusCode, body)
	}
	// The run response carries the typed event stream.
	events, ok := body["events"].([]any)
	if !ok || len(events) == 0 {
		t.Fatalf("run response missing events: %v", body["events"])
	}
	first, _ := events[0].(map[string]any)
	if first["kind"] != "contour_enter" {
		t.Errorf("first event = %v, want contour_enter", first)
	}

	sweepResp, err := http.Get(ts.URL + "/v1/sessions/" + id + "/sweep?strategy=native&max=16")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, sweepResp.Body)
	sweepResp.Body.Close()
	if sweepResp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d", sweepResp.StatusCode)
	}

	fams := scrape(t, ts.URL)
	if got := sampleSum(fams["rqp_runs_total"], "", map[string]string{"algorithm": "spillbound", "outcome": "ok"}); got != 1 {
		t.Errorf("rqp_runs_total{spillbound,ok} = %g, want 1", got)
	}
	if got := sampleSum(fams["rqp_runs_total"], "", map[string]string{"algorithm": "native", "outcome": "sweep"}); got < 1 {
		t.Errorf("rqp_runs_total{native,sweep} = %g, want >= 1", got)
	}
	if got := sampleSum(fams["rqp_suboptimality"], "rqp_suboptimality_count", nil); got < 3 {
		t.Errorf("rqp_suboptimality observations = %g, want >= 3 (run + sweep MSO/ASO)", got)
	}
	if got := sampleSum(fams["rqp_session_builds_total"], "", map[string]string{"result": "ok"}); got != 1 {
		t.Errorf("rqp_session_builds_total{ok} = %g, want 1", got)
	}
	if got := sampleSum(fams["rqp_build_cells_optimized_total"], "", nil); got <= 0 {
		t.Errorf("rqp_build_cells_optimized_total = %g, want > 0", got)
	}
}

func TestDebugStatsSnapshot(t *testing.T) {
	ts := testServer(t)
	var stats struct {
		Runtime struct {
			Goroutines int `json:"goroutines"`
			GOMAXPROCS int `json:"gomaxprocs"`
		} `json:"runtime"`
		Metrics []struct {
			Name string `json:"name"`
			Type string `json:"type"`
		} `json:"metrics"`
	}
	resp := getJSON(t, ts.URL+"/v1/debug/stats", &stats)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug/stats status %d", resp.StatusCode)
	}
	if stats.Runtime.Goroutines <= 0 || stats.Runtime.GOMAXPROCS <= 0 {
		t.Errorf("runtime stats empty: %+v", stats.Runtime)
	}
	found := false
	for _, m := range stats.Metrics {
		if m.Name == "rqp_requests_total" && m.Type == "counter" {
			found = true
		}
	}
	if !found {
		t.Error("debug/stats missing rqp_requests_total family")
	}
}

// TestMetricsRegistriesAreIsolated guards the per-Server registry: two
// servers must not share counters (a process-global registry would double
// count and panic on re-registration).
func TestMetricsRegistriesAreIsolated(t *testing.T) {
	a := httptest.NewServer(New().Handler())
	defer a.Close()
	b := httptest.NewServer(New().Handler())
	defer b.Close()

	resp, err := http.Get(a.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	fams := scrape(t, b.URL)
	if got := sampleSum(fams["rqp_requests_total"], "", map[string]string{"route": "GET /v1/healthz"}); got != 0 {
		t.Errorf("server B saw server A's traffic: %g", got)
	}
}
