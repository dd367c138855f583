package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	repro "repro"
	"repro/internal/workload"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New().Handler())
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url string, payload any) (*http.Response, map[string]any) {
	t.Helper()
	body, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func getJSON(t *testing.T, url string, into any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatal(err)
	}
	return resp
}

// errEnvelope extracts the {"error":{"code","message"}} envelope from a
// decoded body, failing the test when the shape is wrong.
func errEnvelope(t *testing.T, body map[string]any) (code, message string) {
	t.Helper()
	env, ok := body["error"].(map[string]any)
	if !ok {
		t.Fatalf("error body is not the envelope shape: %v", body)
	}
	code, _ = env["code"].(string)
	message, _ = env["message"].(string)
	if code == "" || message == "" {
		t.Fatalf("envelope missing code/message: %v", env)
	}
	return code, message
}

// awaitReady polls the session resource until its status is ready,
// asserting progress is monotone along the way.
func awaitReady(t *testing.T, baseURL, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	lastDone := -1.0
	for time.Now().Before(deadline) {
		var info map[string]any
		resp := getJSON(t, baseURL+"/v1/sessions/"+id, &info)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("get session status %d: %v", resp.StatusCode, info)
		}
		switch info["status"] {
		case "ready":
			return info
		case "failed":
			t.Fatalf("session build failed: %v", info["buildError"])
		case "building":
			if prog, ok := info["progress"].(map[string]any); ok {
				done := prog["cellsDone"].(float64)
				total := prog["cellsTotal"].(float64)
				if done < lastDone {
					t.Fatalf("progress went backwards: %v -> %v", lastDone, done)
				}
				if done > total {
					t.Fatalf("progress overshot: %v/%v", done, total)
				}
				lastDone = done
			}
		default:
			t.Fatalf("unknown status %v", info["status"])
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("session never became ready")
	return nil
}

// createSession accepts the async create (202) and waits until ready.
func createSession(t *testing.T, baseURL string, payload map[string]any) string {
	t.Helper()
	resp, created := postJSON(t, baseURL+"/v1/sessions", payload)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create status %d: %v", resp.StatusCode, created)
	}
	id := created["id"].(string)
	awaitReady(t, baseURL, id)
	return id
}

func TestHealthz(t *testing.T) {
	ts := testServer(t)
	var out map[string]string
	resp := getJSON(t, ts.URL+"/v1/healthz", &out)
	if resp.StatusCode != http.StatusOK || out["status"] != "ok" {
		t.Fatalf("/v1/healthz = %d %v", resp.StatusCode, out)
	}
}

func TestQueriesList(t *testing.T) {
	ts := testServer(t)
	var out []map[string]any
	resp := getJSON(t, ts.URL+"/v1/queries", &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	names := map[string]bool{}
	for _, q := range out {
		names[q["name"].(string)] = true
	}
	for _, want := range []string{"4D_Q91", "JOB_1a", "2D_EQ", "2D_Q91"} {
		if !names[want] {
			t.Errorf("missing %s in /v1/queries", want)
		}
	}
}

// TestAsyncSessionLifecycle drives the v1 build lifecycle end to end:
// POST returns 202 with a building (or already ready) status, GET observes
// monotone progress into ready, and the ready resource carries guarantees.
func TestAsyncSessionLifecycle(t *testing.T) {
	ts := testServer(t)
	resp, created := postJSON(t, ts.URL+"/v1/sessions", map[string]any{
		"query": "2D_EQ", "gridRes": 8,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create status %d: %v", resp.StatusCode, created)
	}
	if st := created["status"]; st != "building" && st != "ready" {
		t.Fatalf("created status = %v", st)
	}
	id := created["id"].(string)
	info := awaitReady(t, ts.URL, id)
	if info["sbGuarantee"].(float64) != 10 {
		t.Errorf("sbGuarantee = %v", info["sbGuarantee"])
	}
	if info["d"].(float64) != 2 {
		t.Errorf("d = %v", info["d"])
	}
	if info["query"] != "2D_EQ" {
		t.Errorf("query = %v", info["query"])
	}

	// Run SpillBound.
	resp, run := postJSON(t, ts.URL+"/v1/sessions/"+id+"/run", map[string]any{
		"strategy": "spillbound", "truth": []float64{0.001, 0.0005},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run status %d: %v", resp.StatusCode, run)
	}
	subOpt := run["subOpt"].(float64)
	if subOpt < 1 || subOpt > 10 {
		t.Errorf("subOpt = %v, want within (1,10]", subOpt)
	}
	if !strings.Contains(run["trace"].(string), "IC") {
		t.Errorf("trace missing contours: %v", run["trace"])
	}

	// Sweep.
	var sweep map[string]any
	if r := getJSON(t, fmt.Sprintf("%s/v1/sessions/%s/sweep?strategy=alignedbound&max=20", ts.URL, id), &sweep); r.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d: %v", r.StatusCode, sweep)
	}
	if sweep["mso"].(float64) > 10 {
		t.Errorf("AB sweep MSO %v above bound", sweep["mso"])
	}
	if sweep["locations"].(float64) != 20 {
		t.Errorf("locations = %v", sweep["locations"])
	}
}

// TestRemovedSpellingsRejected pins the single request surface: the former
// unversioned routes are not mounted, and a run or sweep that names its
// strategy only through a removed spelling (the "algorithm" field or
// parameter, a short alias) fails as an unknown strategy.
func TestRemovedSpellingsRejected(t *testing.T) {
	ts := testServer(t)
	id := createSession(t, ts.URL, map[string]any{"query": "2D_EQ", "gridRes": 6})
	cases := []struct {
		method, path, body string
		wantStatus         int
		wantCode           string // "" for the mux's plain-text 404
	}{
		{"GET", "/healthz", "", http.StatusNotFound, ""},
		{"POST", "/sessions", `{"query":"2D_EQ","gridRes":6}`, http.StatusNotFound, ""},
		{"POST", "/sessions/" + id + "/run", `{"strategy":"spillbound","truth":[0.01,0.02]}`, http.StatusNotFound, ""},
		{"POST", "/v1/sessions/" + id + "/run", `{"algorithm":"spillbound","truth":[0.01,0.02]}`, http.StatusBadRequest, "unknown_strategy"},
		{"POST", "/v1/sessions/" + id + "/run", `{"strategy":"sb","truth":[0.01,0.02]}`, http.StatusBadRequest, "unknown_strategy"},
		{"GET", "/v1/sessions/" + id + "/sweep?algorithm=spillbound", "", http.StatusBadRequest, "unknown_strategy"},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]any
		decodeErr := json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("%s %s %s = %d, want %d", tc.method, tc.path, tc.body, resp.StatusCode, tc.wantStatus)
			continue
		}
		if tc.wantCode == "" {
			continue
		}
		if decodeErr != nil {
			t.Errorf("%s %s: error body is not JSON: %v", tc.method, tc.path, decodeErr)
		} else if code, _ := errEnvelope(t, body); code != tc.wantCode {
			t.Errorf("%s %s %s code = %q, want %q", tc.method, tc.path, tc.body, code, tc.wantCode)
		}
	}
}

// TestRunWhileBuildingConflicts gates the build behind a channel and proves
// run/sweep against the building session return 409 with the
// session_building code, then succeed once the build is released.
func TestRunWhileBuildingConflicts(t *testing.T) {
	gate := make(chan struct{})
	orig := buildSession
	buildSession = func(ctx context.Context, bq workload.Spec, opts repro.Options) (*repro.Session, error) {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return orig(ctx, bq, opts)
	}
	t.Cleanup(func() { buildSession = orig })

	ts := testServer(t)
	resp, created := postJSON(t, ts.URL+"/v1/sessions", map[string]any{"query": "2D_EQ", "gridRes": 6})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create status %d: %v", resp.StatusCode, created)
	}
	id := created["id"].(string)
	if created["status"] != "building" {
		t.Fatalf("status = %v, want building", created["status"])
	}
	if prog, ok := created["progress"].(map[string]any); !ok || prog["cellsTotal"].(float64) != 36 {
		t.Errorf("progress = %v, want cellsTotal 36", created["progress"])
	}

	resp, body := postJSON(t, ts.URL+"/v1/sessions/"+id+"/run", map[string]any{
		"strategy": "spillbound", "truth": []float64{0.01, 0.02},
	})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("run while building = %d (%v), want 409", resp.StatusCode, body)
	}
	if code, _ := errEnvelope(t, body); code != "session_building" {
		t.Errorf("code = %q, want session_building", code)
	}

	var sweep map[string]any
	if r := getJSON(t, ts.URL+"/v1/sessions/"+id+"/sweep?strategy=spillbound", &sweep); r.StatusCode != http.StatusConflict {
		t.Fatalf("sweep while building = %d, want 409", r.StatusCode)
	}

	close(gate)
	awaitReady(t, ts.URL, id)
	resp, run := postJSON(t, ts.URL+"/v1/sessions/"+id+"/run", map[string]any{
		"strategy": "spillbound", "truth": []float64{0.01, 0.02},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run after ready = %d (%v)", resp.StatusCode, run)
	}
}

// TestFailedBuildReportsConflict substitutes a failing build and proves the
// session lands in failed with the error surfaced, and run returns 409 with
// the session_failed code.
func TestFailedBuildReportsConflict(t *testing.T) {
	orig := buildSession
	buildSession = func(ctx context.Context, bq workload.Spec, opts repro.Options) (*repro.Session, error) {
		return nil, fmt.Errorf("synthetic build explosion")
	}
	t.Cleanup(func() { buildSession = orig })

	ts := testServer(t)
	_, created := postJSON(t, ts.URL+"/v1/sessions", map[string]any{"query": "2D_EQ", "gridRes": 6})
	id := created["id"].(string)

	deadline := time.Now().Add(10 * time.Second)
	var info map[string]any
	for time.Now().Before(deadline) {
		getJSON(t, ts.URL+"/v1/sessions/"+id, &info)
		if info["status"] == "failed" {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if info["status"] != "failed" {
		t.Fatalf("status = %v, want failed", info["status"])
	}
	if !strings.Contains(fmt.Sprint(info["buildError"]), "synthetic build explosion") {
		t.Errorf("buildError = %v", info["buildError"])
	}
	resp, body := postJSON(t, ts.URL+"/v1/sessions/"+id+"/run", map[string]any{
		"strategy": "spillbound", "truth": []float64{0.01, 0.02},
	})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("run on failed session = %d, want 409", resp.StatusCode)
	}
	if code, _ := errEnvelope(t, body); code != "session_failed" {
		t.Errorf("code = %q, want session_failed", code)
	}
}

func TestErrorPaths(t *testing.T) {
	ts := testServer(t)
	cases := []struct {
		method, path string
		payload      any
		wantStatus   int
		wantCode     string
	}{
		{"POST", "/v1/sessions", map[string]any{"query": "NOPE"}, http.StatusNotFound, "not_found"},
		{"POST", "/v1/sessions", map[string]any{"query": "2D_EQ", "gridRes": 1}, http.StatusBadRequest, "bad_request"},
		{"POST", "/v1/sessions", map[string]any{"query": "2D_EQ", "profile": "oracle"}, http.StatusBadRequest, "bad_request"},
		{"GET", "/v1/sessions/zzz", nil, http.StatusNotFound, "not_found"},
		{"POST", "/v1/sessions/zzz/run", map[string]any{"strategy": "spillbound", "truth": []float64{0.5, 0.5}}, http.StatusNotFound, "not_found"},
		{"GET", "/v1/sessions/zzz/sweep?strategy=spillbound", nil, http.StatusNotFound, "not_found"},
	}
	for _, tc := range cases {
		var resp *http.Response
		var body map[string]any
		if tc.method == "POST" {
			resp, body = postJSON(t, ts.URL+tc.path, tc.payload)
		} else {
			resp = getJSON(t, ts.URL+tc.path, &body)
		}
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("%s %s = %d, want %d", tc.method, tc.path, resp.StatusCode, tc.wantStatus)
			continue
		}
		if code, _ := errEnvelope(t, body); code != tc.wantCode {
			t.Errorf("%s %s code = %q, want %q", tc.method, tc.path, code, tc.wantCode)
		}
	}
}

func TestRunValidation(t *testing.T) {
	ts := testServer(t)
	id := createSession(t, ts.URL, map[string]any{"query": "2D_EQ", "gridRes": 6})
	cases := []struct {
		payload  map[string]any
		wantCode string
	}{
		{map[string]any{"strategy": "teleport", "truth": []float64{0.5, 0.5}}, "unknown_strategy"},
		{map[string]any{"strategy": "spillbound", "truth": []float64{0.5}}, "bad_request"},
		{map[string]any{"strategy": "spillbound", "truth": []float64{0.5, 2.0}}, "bad_request"},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.URL+"/v1/sessions/"+id+"/run", tc.payload)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("payload %v: status %d (%v)", tc.payload, resp.StatusCode, body)
			continue
		}
		if code, _ := errEnvelope(t, body); code != tc.wantCode {
			t.Errorf("payload %v: code %q, want %q", tc.payload, code, tc.wantCode)
		}
	}
}

// TestBadPayloadsYield4xx proves untrusted request data — malformed JSON,
// unknown names, wrong-arity or out-of-range truth vectors — never reaches
// a panic path: every case is a clean 4xx carrying the uniform error
// envelope, not a 500.
func TestBadPayloadsYield4xx(t *testing.T) {
	ts := testServer(t)
	id := createSession(t, ts.URL, map[string]any{"query": "2D_EQ", "gridRes": 6})

	cases := []struct {
		name, method, path, body string
		wantStatus               int
	}{
		{"malformed JSON create", "POST", "/v1/sessions", `{"query": `, http.StatusBadRequest},
		{"malformed JSON run", "POST", "/v1/sessions/" + id + "/run", `not json at all`, http.StatusBadRequest},
		{"unknown query", "POST", "/v1/sessions", `{"query":"Q_NOPE"}`, http.StatusNotFound},
		{"unknown algorithm", "POST", "/v1/sessions/" + id + "/run", `{"strategy":"quantum","truth":[0.5,0.5]}`, http.StatusBadRequest},
		{"truth arity low", "POST", "/v1/sessions/" + id + "/run", `{"strategy":"spillbound","truth":[0.5]}`, http.StatusBadRequest},
		{"truth arity high", "POST", "/v1/sessions/" + id + "/run", `{"strategy":"spillbound","truth":[0.5,0.5,0.5]}`, http.StatusBadRequest},
		{"truth out of range", "POST", "/v1/sessions/" + id + "/run", `{"strategy":"spillbound","truth":[0.5,7]}`, http.StatusBadRequest},
		{"truth zero", "POST", "/v1/sessions/" + id + "/run", `{"strategy":"spillbound","truth":[0,0.5]}`, http.StatusBadRequest},
		{"sweep on missing session", "GET", "/v1/sessions/ghost/sweep?strategy=spillbound", "", http.StatusNotFound},
		{"sweep bad algorithm", "GET", "/v1/sessions/" + id + "/sweep?strategy=psychic", "", http.StatusBadRequest},
		{"sweep bad max", "GET", "/v1/sessions/" + id + "/sweep?strategy=spillbound&max=-3", "", http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var resp *http.Response
			var err error
			if tc.method == "POST" {
				resp, err = http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
			} else {
				resp, err = http.Get(ts.URL + tc.path)
			}
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			if resp.StatusCode >= 500 {
				t.Fatalf("bad input produced a server error (%d)", resp.StatusCode)
			}
			var body map[string]any
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatalf("error body is not JSON: %v", err)
			}
			errEnvelope(t, body)
		})
	}
}

// TestPanicRecoveryMiddleware proves a panicking handler is converted into
// a structured JSON 500 carrying the error envelope instead of tearing the
// connection down.
func TestPanicRecoveryMiddleware(t *testing.T) {
	h := New().recoverMiddleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("operator bug")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d", rec.Code)
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("500 body not JSON: %v (%q)", err, rec.Body.String())
	}
	code, msg := errEnvelope(t, body)
	if code != "internal" || !strings.Contains(msg, "operator bug") {
		t.Fatalf("envelope = %q %q", code, msg)
	}
}

// TestRequestTimeoutAbortsRun proves an in-flight run is aborted via
// context cancellation when the per-request deadline expires, yielding a
// 504 rather than a hang. Session creation is unaffected: it is async and
// builds on a background context.
func TestRequestTimeoutAbortsRun(t *testing.T) {
	srv := NewWithConfig(Config{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	id := createSession(t, ts.URL, map[string]any{"query": "2D_EQ", "gridRes": 6})
	ts.Close()

	srv.cfg.RequestTimeout = time.Nanosecond
	ts2 := httptest.NewServer(srv.Handler())
	t.Cleanup(ts2.Close)
	start := time.Now()
	resp, body := postJSON(t, ts2.URL+"/v1/sessions/"+id+"/run", map[string]any{
		"strategy": "spillbound", "truth": []float64{0.001, 0.0005},
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%v), want 504", resp.StatusCode, body)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("aborting took %v", took)
	}
	code, msg := errEnvelope(t, body)
	if code != "timeout" || !strings.Contains(msg, "deadline") {
		t.Errorf("envelope = %q %q", code, msg)
	}
}

// TestSessionTTLEviction proves idle ready sessions are dropped after the
// TTL and subsequent requests get a clean 404.
func TestSessionTTLEviction(t *testing.T) {
	srv := NewWithConfig(Config{SessionTTL: time.Minute})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	id := createSession(t, ts.URL, map[string]any{"query": "2D_EQ", "gridRes": 6})

	if n := srv.EvictIdle(time.Now()); n != 0 {
		t.Fatalf("fresh session evicted (%d)", n)
	}
	if n := srv.EvictIdle(time.Now().Add(2 * time.Minute)); n != 1 {
		t.Fatalf("evicted %d, want 1", n)
	}
	if srv.SessionCount() != 0 {
		t.Fatalf("registry size %d", srv.SessionCount())
	}
	var out map[string]any
	if r := getJSON(t, ts.URL+"/v1/sessions/"+id, &out); r.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted session fetch = %d, want 404", r.StatusCode)
	}
}

// TestEvictionSkipsBuildingSessions gates a build and proves the TTL sweep
// leaves the building session alone however stale its lastUsed looks.
func TestEvictionSkipsBuildingSessions(t *testing.T) {
	gate := make(chan struct{})
	orig := buildSession
	buildSession = func(ctx context.Context, bq workload.Spec, opts repro.Options) (*repro.Session, error) {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return orig(ctx, bq, opts)
	}
	t.Cleanup(func() { buildSession = orig })

	srv := NewWithConfig(Config{SessionTTL: time.Minute})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)
	postJSON(t, ts.URL+"/v1/sessions", map[string]any{"query": "2D_EQ", "gridRes": 6})
	if n := srv.EvictIdle(time.Now().Add(time.Hour)); n != 0 {
		t.Fatalf("evicted %d building sessions, want 0", n)
	}
	close(gate)
}

// TestEvictionLoopLifecycle starts and stops the background sweep (the
// -race run guards the registry's concurrent access).
func TestEvictionLoopLifecycle(t *testing.T) {
	srv := NewWithConfig(Config{SessionTTL: 20 * time.Millisecond, EvictInterval: 5 * time.Millisecond})
	srv.StartEviction()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	createSession(t, ts.URL, map[string]any{"query": "2D_EQ", "gridRes": 6})
	deadline := time.Now().Add(5 * time.Second)
	for srv.SessionCount() > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := srv.SessionCount(); n != 0 {
		t.Fatalf("background sweep left %d sessions", n)
	}
	srv.Close()
}

// TestMaxSessionsGuard proves the registry cap rejects creation with 429
// (building sessions count against the cap the moment they are accepted).
func TestMaxSessionsGuard(t *testing.T) {
	srv := NewWithConfig(Config{MaxSessions: 1})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)
	if resp, _ := postJSON(t, ts.URL+"/v1/sessions", map[string]any{"query": "2D_EQ", "gridRes": 6}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first create = %d", resp.StatusCode)
	}
	resp, body := postJSON(t, ts.URL+"/v1/sessions", map[string]any{"query": "2D_EQ", "gridRes": 6})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second create = %d (%v), want 429", resp.StatusCode, body)
	}
	if code, _ := errEnvelope(t, body); code != "too_many_sessions" {
		t.Errorf("code = %q", code)
	}
}

// TestDegradedFieldsAbsentOnCleanRun asserts the response shape of a clean
// run: no degradation fields.
func TestDegradedFieldsAbsentOnCleanRun(t *testing.T) {
	ts := testServer(t)
	id := createSession(t, ts.URL, map[string]any{"query": "2D_EQ", "gridRes": 6})
	_, run := postJSON(t, ts.URL+"/v1/sessions/"+id+"/run", map[string]any{
		"strategy": "spillbound", "truth": []float64{0.01, 0.02},
	})
	if _, present := run["degraded"]; present {
		t.Errorf("clean run carries degraded flag: %v", run)
	}
}

func TestNativeRunHasNoGuaranteeField(t *testing.T) {
	ts := testServer(t)
	id := createSession(t, ts.URL, map[string]any{"query": "2D_EQ", "gridRes": 6})
	resp, run := postJSON(t, ts.URL+"/v1/sessions/"+id+"/run", map[string]any{
		"strategy": "native", "truth": []float64{0.01, 0.01},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, run)
	}
	if _, present := run["guarantee"]; present {
		t.Error("native run should omit the guarantee field")
	}
}

// TestCloseCancelsInFlightBuilds gates a build, closes the server, and
// proves Close returns (the build context is canceled rather than leaked).
func TestCloseCancelsInFlightBuilds(t *testing.T) {
	orig := buildSession
	buildSession = func(ctx context.Context, bq workload.Spec, opts repro.Options) (*repro.Session, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	t.Cleanup(func() { buildSession = orig })

	srv := New()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	postJSON(t, ts.URL+"/v1/sessions", map[string]any{"query": "2D_EQ", "gridRes": 6})

	done := make(chan struct{})
	go func() {
		srv.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung on an in-flight build")
	}
}
