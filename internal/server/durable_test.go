package server

import (
	"context"
	"encoding/json"
	"fmt"
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
	"repro/internal/faults"
	"repro/internal/workload"
)

// awaitRunResumed polls the durable run resource until it reports a
// completed, resumed run with its events (deadline-bounded; recovery runs in
// the background after the session build, and the events appear once the
// server has recorded the resumed run's trace).
func awaitRunResumed(t *testing.T, baseURL, sid, rid string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	var last map[string]any
	for time.Now().Before(deadline) {
		var body map[string]any
		resp := getJSON(t, baseURL+"/v1/sessions/"+sid+"/runs/"+rid, &body)
		if resp.StatusCode == http.StatusOK {
			last = body
			if body["resumed"] == true && body["status"] == "completed" && body["events"] != nil {
				return body
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("run %s never resumed; last seen %v", rid, last)
	return nil
}

// readRun issues one GET and decodes its JSON body, closing it at once.
func readRun(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// crashRun opens a server-created durable session with the library (the
// way a second process would, rehydrating the persisted ESS) and leaves a
// run crashed at its second checkpoint, its last snapshot interrupted.
func crashRun(t *testing.T, dir, sid string, a repro.Algorithm, rid string) {
	t.Helper()
	opts := repro.BenchmarkOptions()
	opts.GridRes = 6
	opts.DataDir = filepath.Join(dir, sid)
	sess, err := repro.NewBenchmarkSession(workload.EQ(), opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := repro.WithFaults(context.Background(), &repro.FaultPlan{CrashAtCheckpoint: 2})
	_, err = sess.RunDurable(ctx, a, repro.Location{0.04, 0.1}, rid)
	if !faults.IsCrash(err) {
		t.Fatalf("want crash, got %v", err)
	}
}

// newDurableSession starts a durable server on dir, builds one 2D_EQ
// session on it, and stops the server, leaving the session on disk.
func newDurableSession(t *testing.T, dir string) string {
	t.Helper()
	srv, ts := overloadServer(t, Config{DataDir: dir})
	resp, created := postJSON(t, ts.URL+"/v1/sessions", map[string]any{"query": "2D_EQ", "gridRes": 6})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create status %d: %v", resp.StatusCode, created)
	}
	sid := created["id"].(string)
	awaitReady(t, ts.URL, sid)
	ts.Close()
	srv.Close()
	return sid
}

// TestDurableRunReadDuringResume races run-resource reads against a
// recovering server's resume of a crashed run. Every read comes from one
// snapshot load, so it shows the run interrupted or completed with its
// result, never completed without its totalCost and traceId.
func TestDurableRunReadDuringResume(t *testing.T) {
	dir := t.TempDir()
	sid := newDurableSession(t, dir)
	crashRun(t, dir, sid, repro.SpillBound, "r1")

	srv, ts := overloadServer(t, Config{DataDir: dir})
	if err := srv.Recover(context.Background()); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	url := ts.URL + "/v1/sessions/" + sid + "/runs/r1"
	seen := map[any]int{}
	deadline := time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("r1 never completed with its events; reads by status %v", seen)
		}
		status, body := readRun(t, url)
		if status == http.StatusConflict {
			continue // the session is still rebuilding
		}
		if status != http.StatusOK {
			t.Fatalf("get r1 status %d: %v", status, body)
		}
		seen[body["status"]]++
		switch body["status"] {
		case "interrupted":
		case "completed":
			if body["totalCost"] == nil || body["traceId"] == nil || body["subOpt"] == nil || body["resumed"] != true {
				t.Fatalf("completed run served without its result: %v", body)
			}
		default:
			t.Fatalf("run resource: %v", body)
		}
		if body["events"] != nil {
			t.Logf("reads by status %v", seen)
			return
		}
	}
}

// TestRunEventsAreTheRunsOwn: two durable runs under one traceparent share
// a trace-store slot, which the later run's stream takes. The later run's
// resource serves its own events, and the earlier one's serves none rather
// than its neighbour's.
func TestRunEventsAreTheRunsOwn(t *testing.T) {
	_, ts := overloadServer(t, Config{DataDir: t.TempDir()})
	sid := createSession(t, ts.URL, map[string]any{"query": "2D_EQ", "gridRes": 6})
	var runs []map[string]any
	for _, truth := range [][]float64{{0.04, 0.1}, {0.9, 0.9}} {
		resp, run := postTraced(t, ts.URL+"/v1/sessions/"+sid+"/run", testTraceparent,
			map[string]any{"strategy": "spillbound", "truth": truth, "durable": true})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("durable run status %d: %v", resp.StatusCode, run)
		}
		runs = append(runs, run)
	}
	_, first := readRun(t, ts.URL+"/v1/sessions/"+sid+"/runs/"+runs[0]["runId"].(string))
	if first["events"] != nil || first["totalCost"] != runs[0]["totalCost"] {
		t.Errorf("earlier run's resource: events %v, totalCost %v (its reply: %v)",
			first["events"] != nil, first["totalCost"], runs[0]["totalCost"])
	}
	_, second := readRun(t, ts.URL+"/v1/sessions/"+sid+"/runs/"+runs[1]["runId"].(string))
	got, _ := json.Marshal(second["events"])
	want, _ := json.Marshal(runs[1]["events"])
	if string(got) != string(want) {
		t.Errorf("later run's resource serves events %s, its reply carried %s", got, want)
	}
}

// TestRecoveryReadsOldAndTornSnapshots: recovery skips a snapshot that does
// not load instead of failing its resume over, fails over a run whose resume
// fails, and serves a terminal snapshot written before the result summary
// was recorded as completed without one.
func TestRecoveryReadsOldAndTornSnapshots(t *testing.T) {
	dir := t.TempDir()
	sid := newDurableSession(t, dir)
	runs := filepath.Join(dir, sid, "runs")
	old := `{"version":1,"runId":"old","algorithm":"spillbound","truth":[0.04,0.1],"seed":1,` +
		`"completed":true,"discovery":{"contour":3,"spent":12.5,"executions":4,"events":20}}`
	if err := os.WriteFile(filepath.Join(runs, "old.json"), []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(runs, "torn.json"), []byte("{junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	// An interrupted run of a 3-dimensional query cannot resume on 2D_EQ.
	skew := `{"version":1,"runId":"skew","algorithm":"spillbound","truth":[0.1,0.2,0.3],"discovery":{"contour":1,"spent":2,"executions":1,"events":3}}`
	if err := os.WriteFile(filepath.Join(runs, "skew.json"), []byte(skew), 0o644); err != nil {
		t.Fatal(err)
	}

	srv, ts := overloadServer(t, Config{DataDir: dir})
	var resumed []string
	err := srv.AdoptSession(sid, AdoptOptions{Node: "n2", OnFailover: func(rid string, err error) {
		resumed = append(resumed, rid)
	}})
	if err != nil {
		t.Fatal(err)
	}
	srv.buildWG.Wait() // the rebuild and its resumes, which call OnFailover
	if len(resumed) != 1 || resumed[0] != "skew" {
		t.Errorf("recovery resumed %v; want [skew] alone, not the terminal or the unreadable snapshot", resumed)
	}
	status, body := readRun(t, ts.URL+"/v1/sessions/"+sid+"/runs/skew")
	if status != http.StatusOK || body["status"] != "failed" || body["resumed"] != true ||
		!strings.Contains(fmt.Sprint(body["error"]), "dims") {
		t.Errorf("failed-over run resource (status %d): %v", status, body)
	}

	status, body = readRun(t, ts.URL+"/v1/sessions/"+sid+"/runs/old")
	if status != http.StatusOK {
		t.Fatalf("get old status %d: %v", status, body)
	}
	if body["status"] != "completed" || body["algorithm"] != "spillbound" || body["contour"] != 4.0 || body["spent"] != 12.5 {
		t.Errorf("old run resource: %v", body)
	}
	for _, k := range []string{"resumed", "totalCost", "optimalCost", "subOpt", "degraded", "traceId", "events", "error"} {
		if v, ok := body[k]; ok {
			t.Errorf("old run resource has %s = %v; its snapshot has none", k, v)
		}
	}
	if status, body := readRun(t, ts.URL+"/v1/sessions/"+sid+"/runs/torn"); status != http.StatusNotFound {
		t.Errorf("get torn status %d: %v", status, body)
	}
	var list []map[string]any
	if resp := getJSON(t, ts.URL+"/v1/sessions/"+sid+"/runs", &list); resp.StatusCode != http.StatusOK {
		t.Fatalf("list runs status %d", resp.StatusCode)
	}
	if len(list) != 2 || list[0]["runId"] != "old" || list[1]["runId"] != "skew" {
		t.Errorf("run list: %v", list)
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

	// Simulate the process dying mid-run: a run killed at its second contour
	// checkpoint leaves its interrupted state on disk.
	crashRun(t, dir, sid, repro.SpillBound, "r2")

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
	if r1["status"] != "completed" || r1["resumed"] == true || r1["algorithm"] != "spillbound" {
		t.Errorf("r1 resource: %v", r1)
	}
	// Its result is read from the terminal snapshot, so it outlives the
	// process that served the run; its events lived in that process's trace
	// store only.
	for _, k := range []string{"totalCost", "optimalCost", "subOpt", "traceId"} {
		if r1[k] == nil || r1[k] != run[k] {
			t.Errorf("r1 %s after the restart = %v, the run returned %v", k, r1[k], run[k])
		}
	}
	if r1["events"] != nil {
		t.Errorf("r1 serves events the restarted trace store never held: %v", r1["events"])
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

// TestRejectedDurableRunIsNotListed: a durable run with a truth the session
// rejects gets a 400 and leaves nothing on disk, so the runs listing stays
// empty and a restart has nothing to resume.
func TestRejectedDurableRunIsNotListed(t *testing.T) {
	_, ts := overloadServer(t, Config{DataDir: t.TempDir()})
	sid := createSession(t, ts.URL, map[string]any{"query": "2D_EQ", "gridRes": 6})
	for _, truth := range [][]float64{{0.5, 2}, {0.5}} {
		resp, body := postJSON(t, ts.URL+"/v1/sessions/"+sid+"/run",
			map[string]any{"strategy": "spillbound", "truth": truth, "durable": true})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("truth %v: status %d: %v", truth, resp.StatusCode, body)
		}
		var list []any
		if resp := getJSON(t, ts.URL+"/v1/sessions/"+sid+"/runs", &list); resp.StatusCode != http.StatusOK || len(list) != 0 {
			t.Fatalf("after rejecting truth %v: runs status %d, %v; want none", truth, resp.StatusCode, list)
		}
	}
}

// TestOverloadResponsesCarryRetryAfter proves the 429 session-cap response
// advertises when to retry via the Retry-After header: the eviction cadence
// as the base, plus the deterministic per-request jitter that keeps
// synchronized clients from herding back on the same second.
func TestOverloadResponsesCarryRetryAfter(t *testing.T) {
	srv := NewWithConfig(Config{MaxSessions: 1, SessionTTL: 40 * time.Second})
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

// TestPinnedIDAdvancesTheAllocator: a create pinned to "s1" and a later
// unpinned create must both stay registered. The allocator steps past a
// pinned "s<N>", so the unpinned create cannot take "s1" again and orphan
// the first entry's build.
func TestPinnedIDAdvancesTheAllocator(t *testing.T) {
	srv, ts := overloadServer(t, Config{})
	if resp := postPinned(t, ts.URL, "s1", `{"query":"2D_EQ","gridRes":4}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("pinned create: status %d", resp.StatusCode)
	}
	resp, created := postJSON(t, ts.URL+"/v1/sessions", map[string]any{"query": "2D_EQ", "gridRes": 4})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("unpinned create: status %d: %v", resp.StatusCode, created)
	}
	if created["id"] == "s1" {
		t.Errorf("unpinned create reused the pinned ID s1")
	}
	if n := srv.SessionCount(); n != 2 {
		t.Errorf("registry holds %d sessions after two creates, want 2", n)
	}
	awaitReady(t, ts.URL, "s1")
	awaitReady(t, ts.URL, created["id"].(string))
}

// TestRecoveredSessionResolvesLikeItsCreate: a durable session created with
// a profile and a grid resolution is recovered with both. While its rebuild
// runs, its progress reports the grid's cell total, and once ready it
// serves the original's plan diagram and guarantees.
func TestRecoveredSessionResolvesLikeItsCreate(t *testing.T) {
	dir := t.TempDir()
	srv1, ts1 := overloadServer(t, Config{DataDir: dir})
	resp, created := postJSON(t, ts1.URL+"/v1/sessions",
		map[string]any{"query": "2D_EQ", "gridRes": 5, "profile": "commercial"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create status %d: %v", resp.StatusCode, created)
	}
	sid := created["id"].(string)
	want := awaitReady(t, ts1.URL, sid)
	ts1.Close()
	srv1.Close()

	// The creation record keeps its on-disk bytes.
	meta, err := os.ReadFile(filepath.Join(dir, sid, "session.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got, wantMeta := string(meta), `{"id":"s1","query":"2D_EQ","gridRes":5,"profile":"commercial"}`; got != wantMeta {
		t.Errorf("session.json = %s, want %s", got, wantMeta)
	}

	gate := make(chan struct{})
	orig := buildSession
	buildSession = func(ctx context.Context, bq workload.Spec, o repro.Options) (*repro.Session, error) {
		if o.BuildProgress == nil {
			t.Error("recovery build has no progress hook")
		}
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return orig(ctx, bq, o)
	}
	t.Cleanup(func() { buildSession = orig })
	srv2, ts2 := overloadServer(t, Config{DataDir: dir})
	if err := srv2.Recover(context.Background()); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	var building map[string]any
	getJSON(t, ts2.URL+"/v1/sessions/"+sid, &building)
	prog, _ := building["progress"].(map[string]any)
	if building["status"] != "building" || prog == nil || prog["cellsTotal"] != 25.0 {
		t.Errorf("recovering session %v, want building with cellsTotal 25 (5^2)", building)
	}
	close(gate)
	got := awaitReady(t, ts2.URL, sid)
	for _, k := range []string{"pospSize", "contours", "pbGuarantee", "sbGuarantee", "abGuaranteeLow", "abGuaranteeHigh"} {
		if got[k] != want[k] {
			t.Errorf("recovered %s = %v, created %v", k, got[k], want[k])
		}
	}
}
