package server

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/guard"
)

// forceStage walks an enabled brownout controller to the wanted stage by
// feeding saturated fleet pressure through the real tick path.
func forceStage(t *testing.T, s *Server, want int) {
	t.Helper()
	s.SetFleetPressure(func() float64 { return 1.0 })
	for i := s.Stage(); i < want; i++ {
		s.brownoutTick()
	}
	s.SetFleetPressure(nil)
	if got := s.Stage(); got != want {
		t.Fatalf("forced stage %d, got %d", want, got)
	}
}

func brownoutServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv := NewWithConfig(Config{Brownout: true})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func TestBrownoutDropsTraceSamplingAtStageOne(t *testing.T) {
	srv, _ := brownoutServer(t)
	id := "deadbeefdeadbeefdeadbeefdeadbeef"
	if !srv.keepTrace(id) {
		t.Fatal("stage 0 with zero Config must keep every trace")
	}
	forceStage(t, srv, 1)
	if srv.keepTrace(id) {
		t.Fatal("stage 1 must drop trace sampling")
	}
}

func TestBrownoutStageTwoShedsSweepAndAtlas(t *testing.T) {
	srv, ts := brownoutServer(t)
	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	forceStage(t, srv, 1)
	// One stage below the gate: requests reach their handlers (404/400 from
	// validation, not 503 from the brownout).
	if resp := get("/v1/sessions/nope/sweep?strategy=spillbound"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("stage 1 sweep: status %d, want 404 (handler reached)", resp.StatusCode)
	}
	if resp := get("/v1/atlas"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("stage 1 atlas: status %d, want 400 (handler reached)", resp.StatusCode)
	}

	forceStage(t, srv, 2)
	for _, path := range []string{"/v1/sessions/nope/sweep?strategy=spillbound", "/v1/atlas"} {
		resp := get(path)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("stage 2 %s: status %d, want 503", path, resp.StatusCode)
		}
		ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
		if err != nil || ra < 3 {
			// Hint base is stage+1 = 3; jitter only adds.
			t.Fatalf("stage 2 %s: Retry-After %q, want ≥ 3", path, resp.Header.Get("Retry-After"))
		}
	}
	// Runs and creates still serve at stage 2 (reach their handlers).
	if resp, _ := postJSON(t, ts.URL+"/v1/sessions", map[string]any{"query": "2D_EQ", "gridRes": 4}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("stage 2 create: status %d, want 202", resp.StatusCode)
	}
	if v := srv.metrics.shed.With("run", "brownout").Value(); v != 2 {
		t.Fatalf("rqp_shed_total{run,brownout} = %v, want 2", v)
	}
}

func TestBrownoutStageThreeShedsBuildsKeepsRuns(t *testing.T) {
	srv, ts := brownoutServer(t)
	forceStage(t, srv, 3)
	resp, body := postJSON(t, ts.URL+"/v1/sessions", map[string]any{"query": "2D_EQ", "gridRes": 4})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stage 3 create: status %d, want 503", resp.StatusCode)
	}
	if code, msg := errEnvelope(t, body); code != codeOverloaded || !strings.Contains(msg, "brownout") {
		t.Fatalf("stage 3 create envelope: %q %q", code, msg)
	}
	// Runs still reach their handler (404 — no such session — not 503).
	r, err := http.Post(ts.URL+"/v1/sessions/nope/run", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("stage 3 run: status %d, want 404 (still admitted)", r.StatusCode)
	}
}

func TestBrownoutStageFourShedsRuns(t *testing.T) {
	srv, ts := brownoutServer(t)
	forceStage(t, srv, 4)
	r, err := http.Post(ts.URL+"/v1/sessions/nope/run", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stage 4 run: status %d, want 503", r.StatusCode)
	}
	// The observability surface must survive a full shed.
	for _, path := range []string{"/v1/healthz", "/v1/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stage 4 %s: status %d, want 200", path, resp.StatusCode)
		}
	}
}

// TestBrownoutDisabledStaysStageZero is the single-node invariant: without
// Config.Brownout the controller is nil, the stage is pinned at 0, the
// gauge renders 0, and StartBrownout is a no-op.
func TestBrownoutDisabledStaysStageZero(t *testing.T) {
	srv := NewWithConfig(DefaultConfig())
	t.Cleanup(srv.Close)
	srv.StartBrownout()
	if srv.brownoutQ != nil {
		t.Fatal("StartBrownout launched a loop with brownout disabled")
	}
	srv.SetFleetPressure(func() float64 { return 1.0 })
	srv.brownoutTick() // must not panic, must not move the stage
	if srv.Stage() != 0 {
		t.Fatalf("stage %d, want 0", srv.Stage())
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 1<<20)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "rqp_brownout_stage 0") {
		t.Fatal("rqp_brownout_stage gauge missing or non-zero on a single-node server")
	}
}

// TestBrownoutStageTransitionHook proves the observer fires on every
// transition with the (from, to) pair, both ascending and descending.
func TestBrownoutStageTransitionHook(t *testing.T) {
	srv := NewWithConfig(Config{Brownout: true, BrownoutConfig: guard.BrownoutConfig{DwellTicks: 1}})
	t.Cleanup(srv.Close)
	var hops [][2]int
	srv.OnBrownoutStage(func(from, to int) { hops = append(hops, [2]int{from, to}) })

	srv.SetFleetPressure(func() float64 { return 0.6 })
	srv.brownoutTick()
	srv.SetFleetPressure(func() float64 { return 0 })
	srv.brownoutTick()
	want := [][2]int{{0, 1}, {1, 0}}
	if len(hops) != len(want) {
		t.Fatalf("hook fired %d times: %v", len(hops), hops)
	}
	for i := range want {
		if hops[i] != want[i] {
			t.Fatalf("hop %d = %v, want %v", i, hops[i], want[i])
		}
	}
}

// TestVitalsSnapshot checks the gossiped shape reflects limiter/breaker
// configuration and that the shed-rate window derives a non-zero rate
// after a burst of rejections.
func TestVitalsSnapshot(t *testing.T) {
	srv := NewWithConfig(Config{MaxConcurrentRuns: 8, MaxConcurrentBuilds: 2, BreakerThreshold: 3, BreakerCooldown: time.Second})
	t.Cleanup(srv.Close)
	v := srv.Vitals()
	if v.RunLimit != 8 || v.BuildLimit != 2 {
		t.Fatalf("limits %v/%v, want 8/2", v.RunLimit, v.BuildLimit)
	}
	if v.Goroutines <= 0 || v.HeapBytes == 0 {
		t.Fatalf("process vitals not populated: %+v", v)
	}
	if v.RetryAfterHint < 1 {
		t.Fatalf("RetryAfterHint %d, want ≥ 1", v.RetryAfterHint)
	}

	srv.shedRate() // initialize the window
	for i := 0; i < 50; i++ {
		srv.countShed("run", "limiter")
	}
	time.Sleep(shedRateWindow + 50*time.Millisecond)
	if rate := srv.Vitals().ShedRate; rate <= 0 {
		t.Fatalf("shed rate %v after 50 sheds, want > 0", rate)
	}
}
