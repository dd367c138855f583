package server

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	repro "repro"
	"repro/internal/workload"
)

// awaitRunResumed polls the durable run resource until it reports a
// completed, resumed run (deadline-bounded; recovery runs in the background
// after the session build).
func awaitRunResumed(t *testing.T, baseURL, sid, rid string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	var last map[string]any
	for time.Now().Before(deadline) {
		var body map[string]any
		resp := getJSON(t, baseURL+"/v1/sessions/"+sid+"/runs/"+rid, &body)
		if resp.StatusCode == http.StatusOK {
			last = body
			if body["resumed"] == true && body["status"] != "failed" && body["status"] != "interrupted" {
				return body
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("run %s never resumed; last seen %v", rid, last)
	return nil
}

// TestGetRunRacingRecord checks that a run resource read while the run's
// result is being recorded is consistent: the checkpoint info of a run not
// yet recorded, or the full result, never a resumed run without its result.
// The record flips between absent and a resumed run's while GETs read it,
// the way a recovering server records a resume that completes mid-read.
func TestGetRunRacingRecord(t *testing.T) {
	srv, ts := overloadServer(t, Config{DataDir: t.TempDir()})
	resp, created := postJSON(t, ts.URL+"/v1/sessions", map[string]any{"query": "2D_EQ", "gridRes": 6})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create status %d: %v", resp.StatusCode, created)
	}
	sid := created["id"].(string)
	awaitReady(t, ts.URL, sid)
	resp, run := postJSON(t, ts.URL+"/v1/sessions/"+sid+"/run",
		map[string]any{"strategy": "spillbound", "truth": []float64{0.04, 0.1}, "durable": true})
	if resp.StatusCode != http.StatusOK || run["runId"] != "r1" {
		t.Fatalf("durable run status %d: %v", resp.StatusCode, run)
	}

	srv.mu.Lock()
	e := srv.sessions[sid]
	rec := *e.runs["r1"]
	srv.mu.Unlock()
	rec.resumed = true
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			srv.mu.Lock()
			delete(e.runs, "r1")
			srv.mu.Unlock()
			time.Sleep(50 * time.Microsecond)
			r := rec
			srv.mu.Lock()
			e.runs["r1"] = &r
			srv.mu.Unlock()
			time.Sleep(50 * time.Microsecond)
		}
	}()
	for reads := 0; ; reads++ {
		select {
		case <-done:
			t.Logf("%d consistent reads", reads)
			return
		default:
		}
		var body map[string]any
		if resp := getJSON(t, ts.URL+"/v1/sessions/"+sid+"/runs/r1", &body); resp.StatusCode != http.StatusOK {
			t.Fatalf("get r1 status %d: %v", resp.StatusCode, body)
		}
		if body["resumed"] == true && body["totalCost"] == nil {
			t.Fatalf("read %d: resumed run served without its result: %v", reads, body)
		}
	}
}

// TestDurableServerRecovery is the end-to-end restart drill: a durable
// server hosts a session with one completed run, the process "dies" leaving
// a second run crashed mid-contour, and a fresh server over the same data
// directory must recover the session without re-running the optimizer
// enumeration, resume the interrupted run from its checkpoint, and serve
// both run resources over /v1.
func TestDurableServerRecovery(t *testing.T) {
	dir := t.TempDir()

	srv1 := NewWithConfig(Config{DataDir: dir})
	ts1 := httptest.NewServer(srv1.Handler())
	resp, created := postJSON(t, ts1.URL+"/v1/sessions", map[string]any{"query": "2D_EQ", "gridRes": 6})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create status %d: %v", resp.StatusCode, created)
	}
	sid := created["id"].(string)
	awaitReady(t, ts1.URL, sid)

	resp, run := postJSON(t, ts1.URL+"/v1/sessions/"+sid+"/run",
		map[string]any{"strategy": "spillbound", "truth": []float64{0.04, 0.1}, "durable": true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("durable run status %d: %v", resp.StatusCode, run)
	}
	if run["runId"] != "r1" || run["resumed"] == true {
		t.Fatalf("durable run response: %v", run)
	}
	baseCost := run["totalCost"].(float64)
	ts1.Close()
	srv1.Close()

	// Simulate the process dying mid-run: attach to the session's directory
	// with the library (rehydrating the ESS the server persisted) and kill a
	// run at its second contour checkpoint. The torn run state stays on disk.
	opts := repro.BenchmarkOptions()
	opts.GridRes = 6
	opts.DataDir = filepath.Join(dir, sid)
	sess, err := repro.NewBenchmarkSession(repro.EQBenchmark(), opts)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sess.RunDurableWithFaults(context.Background(), repro.SpillBound,
		repro.Location{0.04, 0.1}, "r2", &repro.FaultPlan{CrashAtCheckpoint: 2})
	if !repro.ErrRunCrashed(err) {
		t.Fatalf("want crash, got %v", err)
	}

	// Restart over the same data directory.
	srv2 := NewWithConfig(Config{DataDir: dir})
	t.Cleanup(srv2.Close)
	orig := buildSession
	buildSession = func(ctx context.Context, bq workload.Spec, o repro.Options) (*repro.Session, error) {
		// Recovery must rehydrate the persisted ESS, never re-enumerate.
		o.BuildProgress = func(done, total int) { t.Error("recovery re-ran the ESS build") }
		return orig(ctx, bq, o)
	}
	t.Cleanup(func() { buildSession = orig })
	if err := srv2.Recover(context.Background()); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(ts2.Close)

	info := awaitReady(t, ts2.URL, sid)
	if info["query"] != "2D_EQ" {
		t.Errorf("recovered session query %v", info["query"])
	}
	resumed := awaitRunResumed(t, ts2.URL, sid, "r2")
	if cost := resumed["totalCost"].(float64); cost != baseCost {
		t.Errorf("resumed run cost %g, uninterrupted run cost %g", cost, baseCost)
	}

	// The earlier completed run survived the restart too.
	var r1 map[string]any
	if resp := getJSON(t, ts2.URL+"/v1/sessions/"+sid+"/runs/r1", &r1); resp.StatusCode != http.StatusOK {
		t.Fatalf("get r1 status %d: %v", resp.StatusCode, r1)
	}
	if r1["status"] != "completed" || r1["resumed"] == true {
		t.Errorf("r1 resource: %v", r1)
	}
	var list []map[string]any
	if resp := getJSON(t, ts2.URL+"/v1/sessions/"+sid+"/runs", &list); resp.StatusCode != http.StatusOK {
		t.Fatalf("list runs status %d", resp.StatusCode)
	}
	if len(list) != 2 || list[0]["runId"] != "r1" || list[1]["runId"] != "r2" {
		t.Errorf("run list: %v", list)
	}

	// A new durable run on the recovered session must not collide with the
	// recovered IDs.
	resp, run3 := postJSON(t, ts2.URL+"/v1/sessions/"+sid+"/run",
		map[string]any{"strategy": "planbouquet", "truth": []float64{0.04, 0.1}, "durable": true})
	if resp.StatusCode != http.StatusOK || run3["runId"] != "r3" {
		t.Errorf("post-recovery run allocated %v (status %d)", run3["runId"], resp.StatusCode)
	}

	// The recovery counters are exposed on /v1/metrics.
	mresp, err := http.Get(ts2.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	text, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"rqp_resumes_total 1", "rqp_checkpoints_total"} {
		if !strings.Contains(string(text), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestDurableRunNeedsDataDir proves durable runs and the run resources are
// cleanly rejected on a server without a data directory.
func TestDurableRunNeedsDataDir(t *testing.T) {
	ts := testServer(t)
	sid := createSession(t, ts.URL, map[string]any{"query": "2D_EQ", "gridRes": 6})
	resp, body := postJSON(t, ts.URL+"/v1/sessions/"+sid+"/run",
		map[string]any{"strategy": "spillbound", "truth": []float64{0.04, 0.1}, "durable": true})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("durable run without -data: status %d: %v", resp.StatusCode, body)
	}
	errEnvelope(t, body)
	var list any
	if resp := getJSON(t, ts.URL+"/v1/sessions/"+sid+"/runs", &list); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("runs listing without -data: status %d", resp.StatusCode)
	}
}

// TestOverloadResponsesCarryRetryAfter proves the 429 session-cap response
// advertises when to retry via the Retry-After header: the eviction cadence
// as the base, plus the deterministic per-request jitter that keeps
// synchronized clients from herding back on the same second.
func TestOverloadResponsesCarryRetryAfter(t *testing.T) {
	srv := NewWithConfig(Config{MaxSessions: 1, SessionTTL: time.Minute, EvictInterval: 10 * time.Second})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	if resp, body := postJSON(t, ts.URL+"/v1/sessions", map[string]any{"query": "2D_EQ", "gridRes": 6}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first create status %d: %v", resp.StatusCode, body)
	}
	resp, body := postJSON(t, ts.URL+"/v1/sessions", map[string]any{"query": "2D_EQ", "gridRes": 6})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second create status %d: %v", resp.StatusCode, body)
	}
	code, _ := errEnvelope(t, body)
	if code != codeTooManySessions {
		t.Errorf("code = %q", code)
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 1 {
		t.Errorf("Retry-After = %q, want a positive integer", resp.Header.Get("Retry-After"))
	}
	// Base 10 (the eviction cadence) + jitter in [0, 10/2+3).
	if secs < 10 || secs >= 18 {
		t.Errorf("Retry-After = %d, want the 10s eviction cadence + jitter in [10, 18)", secs)
	}
}

// postPinned issues a fleet-style pinned session create: the payload plus
// the X-Rqp-Fleet-Session header a fronting node stamps.
func postPinned(t *testing.T, baseURL, id, payload string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, baseURL+"/v1/sessions", strings.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(FleetSessionHeader, id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestPinnedCreateClaimsSessionDirOnDisk: the in-memory duplicate check only
// covers one process, so with a shared fleet data dir the session directory
// itself is the cross-node claim — a pinned create must 409 when another
// node's directory already exists, and must not leave a half-registered
// session behind locally.
func TestPinnedCreateClaimsSessionDirOnDisk(t *testing.T) {
	dir := t.TempDir()
	srv := NewWithConfig(Config{DataDir: dir})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// Another node (unknown to this process's registry) already claimed the
	// pinned ID on shared disk.
	if err := os.Mkdir(filepath.Join(dir, "ftaken"), 0o755); err != nil {
		t.Fatal(err)
	}
	resp := postPinned(t, ts.URL, "ftaken", `{"query":"2D_EQ","gridRes":4}`)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("create over a foreign on-disk claim: status %d, want 409", resp.StatusCode)
	}
	// The rejected create must not have registered the session locally.
	var probe map[string]any
	if got := getJSON(t, ts.URL+"/v1/sessions/ftaken", &probe); got.StatusCode != http.StatusNotFound {
		t.Fatalf("rejected pinned create left a local session: status %d", got.StatusCode)
	}

	// A fresh pinned ID claims its directory and builds normally.
	resp = postPinned(t, ts.URL, "ffresh", `{"query":"2D_EQ","gridRes":4}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fresh pinned create: status %d", resp.StatusCode)
	}
	if _, err := os.Stat(filepath.Join(dir, "ffresh")); err != nil {
		t.Fatalf("accepted pinned create did not claim its directory: %v", err)
	}
	// Re-creating it collides — in memory this time, same 409.
	if resp := postPinned(t, ts.URL, "ffresh", `{"query":"2D_EQ","gridRes":4}`); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate pinned create: status %d, want 409", resp.StatusCode)
	}
	awaitReady(t, ts.URL, "ffresh")
}
