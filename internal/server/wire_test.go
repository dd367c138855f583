package server

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	repro "repro"
	"repro/internal/faults"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

var updateWireGolden = flag.Bool("update", false, "rewrite testdata/wire_golden.json from the current code")

// wireTraceparent is the fixed W3C header every golden request carries, so
// the replies' traceId is pinned too.
const wireTraceparent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"

// wireCase is one pinned run reply: the request that produced it and the
// exact response body bytes.
type wireCase struct {
	Name    string `json:"name"`
	Request string `json:"request"`
	Status  int    `json:"status"`
	Body    string `json:"body"`
}

// wireServer boots an in-process server with one ready 4D_Q91 session
// and returns its handler and the session ID.
func wireServer(t testing.TB, cfg Config) (*Server, http.Handler, string) {
	t.Helper()
	srv := NewWithConfig(cfg)
	t.Cleanup(srv.Close)
	h := srv.Handler()
	w := serveWire(h, http.MethodPost, "/v1/sessions", `{"query":"4D_Q91"}`)
	var info struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &info); err != nil || w.Code != http.StatusAccepted {
		t.Fatalf("create: status %d: %s", w.Code, w.Body)
	}
	for deadline := time.Now().Add(time.Minute); info.Status != statusReady; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) || info.Status == statusFailed {
			t.Fatalf("session %s never became ready: %s", info.ID, w.Body)
		}
		w = serveWire(h, http.MethodGet, "/v1/sessions/"+info.ID, "")
		if err := json.Unmarshal(w.Body.Bytes(), &info); err != nil {
			t.Fatal(err)
		}
	}
	return srv, h, info.ID
}

// serveWire sends one in-process request carrying the fixed traceparent.
func serveWire(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	r := httptest.NewRequest(method, path, bytes.NewReader([]byte(body)))
	r.Header.Set("Traceparent", wireTraceparent)
	h.ServeHTTP(w, r)
	return w
}

// buildWireGolden posts every registered strategy at two off-grid truths,
// fault-scenario runs that retry, degrade, abort at the watchdog ceiling
// and escape the ESS, and a durable run; then it crashes a durable run at
// its second checkpoint, resumes it and writes that result as a run reply.
func buildWireGolden(t *testing.T) []wireCase {
	t.Helper()
	srv, h, id := wireServer(t, Config{DataDir: t.TempDir()})
	path := "/v1/sessions/" + id + "/run"
	var doc []wireCase
	post := func(name, body string) {
		w := serveWire(h, http.MethodPost, path, body)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, w.Code, w.Body)
		}
		doc = append(doc, wireCase{Name: name, Request: body, Status: w.Code, Body: w.Body.String()})
	}
	truths := []string{"[0.0123,0.234,0.00456,0.5678]", "[0.00071,0.031,0.27,0.0042]"}
	for _, info := range repro.Strategies() {
		for i, truth := range truths {
			post(fmt.Sprintf("%s/truth%d", info.Name, i+1),
				fmt.Sprintf(`{"strategy":%q,"truth":%s}`, info.Name, truth))
		}
	}
	for _, sc := range []struct{ strategy, scenario string }{
		{"spillbound", "adversarial-1"},         // ESS escape: the guard's safe path
		{"planbouquet", "adversarial-2"},        // transient failures the retry ladder absorbs
		{"planbouquet", "adversarial-6"},        // a failure burst past the retries: degraded
		{"alignedbound", "regret-correlated-1"}, // budget overrun: watchdog aborts
	} {
		post(fmt.Sprintf("%s/%s", sc.strategy, sc.scenario),
			fmt.Sprintf(`{"strategy":%q,"truth":%s,"scenario":%q}`, sc.strategy, truths[0], sc.scenario))
	}
	post("spillbound/durable", fmt.Sprintf(`{"strategy":"spillbound","truth":%s,"durable":true,"runId":"wire-durable"}`, truths[1]))

	srv.mu.Lock()
	sess := srv.sessions[id].sess
	srv.mu.Unlock()
	tp, err := trace.Parse(wireTraceparent)
	if err != nil {
		t.Fatal(err)
	}
	ctx := trace.WithContext(context.Background(), tp)
	_, err = sess.RunDurable(repro.WithFaults(ctx, &repro.FaultPlan{CrashAtCheckpoint: 2}),
		"spillbound", repro.Location{0.0123, 0.234, 0.00456, 0.5678}, "wire-resumed")
	if !faults.IsCrash(err) {
		t.Fatalf("want a crash at checkpoint 2, got %v", err)
	}
	res, err := sess.ResumeRun(context.Background(), "wire-resumed")
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	srv.writeRunReply(w, buildRunResponse(sess, res.Algorithm, res))
	doc = append(doc, wireCase{Name: "spillbound/resumed", Request: "ResumeRun(wire-resumed)", Status: w.Code, Body: w.Body.String()})
	return doc
}

// TestWireGolden pins the exact bytes of run replies (every strategy,
// fault scenarios, a durable and a resumed durable run) against
// testdata/wire_golden.json. Run with -update to regenerate.
func TestWireGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("wire golden builds a 4D session; skipped in -short")
	}
	golden := filepath.Join("testdata", "wire_golden.json")
	doc := buildWireGolden(t)
	got, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if *updateWireGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d replies)", golden, len(doc))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	var wantDoc []wireCase
	if err := json.Unmarshal(want, &wantDoc); err != nil {
		t.Fatalf("golden file corrupt: %v", err)
	}
	for i := range doc {
		if i >= len(wantDoc) {
			break
		}
		if doc[i] != wantDoc[i] {
			t.Fatalf("reply %d (%s) differs:\n got: %s\nwant: %s", i, doc[i].Name, doc[i].Body, wantDoc[i].Body)
		}
	}
	t.Fatalf("golden mismatch: %d replies generated, %d pinned", len(doc), len(wantDoc))
}

// TestRunReplyMatchesEncodingJSON holds the hand-written run reply to
// encoding/json, the independent reference: for a few hundred seeded runs
// (every strategy, clean and under latency-free fault scenarios, at
// log-uniform truths) writeRunReply must write exactly what
// json.NewEncoder(w).Encode(resp) writes. A reply carrying a non-finite
// float, which encoding/json rejects too, is a 500 error envelope.
func TestRunReplyMatchesEncodingJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 4D session and runs it a few hundred times; skipped in -short")
	}
	srv, _, id := wireServer(t, Config{})
	srv.mu.Lock()
	sess := srv.sessions[id].sess
	srv.mu.Unlock()
	var algos []repro.Algorithm
	for _, info := range repro.Strategies() {
		algos = append(algos, repro.Algorithm(info.Name))
	}
	scenarios := []string{"", "", "benign-1", "benign-2", "regret-correlated-1", "regret-correlated-2",
		"adversarial-1", "adversarial-2", "adversarial-6"}
	rng := rand.New(rand.NewSource(32))
	check := func(name string, resp *runResponse) {
		t.Helper()
		var want bytes.Buffer
		_ = json.NewEncoder(&want).Encode(resp)
		w := httptest.NewRecorder()
		srv.writeRunReply(w, resp)
		if w.Code != http.StatusOK || w.Body.String() != want.String() {
			t.Fatalf("%s: status %d, reply differs from encoding/json:\n got: %s\nwant: %s", name, w.Code, w.Body, want.String())
		}
	}
	for i := 0; i < 300; i++ {
		algo := algos[rng.Intn(len(algos))]
		truth := make(repro.Location, 4)
		for d := range truth {
			truth[d] = math.Exp(math.Log(1e-6) * (1 - rng.Float64()))
		}
		name := scenarios[rng.Intn(len(scenarios))]
		var res repro.RunResult
		var err error
		if name == "" {
			res, err = sess.RunContext(context.Background(), algo, truth)
		} else {
			sc, ok := repro.ScenarioByName(1, name)
			if !ok {
				t.Fatalf("no scenario %s", name)
			}
			res, err = sess.RunContext(repro.WithFaults(context.Background(), &sc.Faults), algo, truth)
		}
		if err != nil {
			t.Fatalf("run %d (%s %v %s): %v", i, algo, truth, name, err)
		}
		resp := buildRunResponse(sess, algo, res)
		resp.Scenario = name
		check(fmt.Sprintf("run %d (%s %v %s)", i, algo, truth, name), resp)
	}
	// Strings that need escaping, and floats at the exponent-form edges.
	odd := &runResponse{Algorithm: "a<b>&c", TotalCost: 1e21, OptimalCost: 1e-7, SubOpt: 5e-324,
		Trace: "line \xff\x01\n", Events: []telemetry.Event{}, DegradedReason: "\"q\"\\", Degraded: true}
	check("escapes", odd)
	odd.Events = nil
	check("nil events", odd)
	odd.SubOpt = math.NaN()
	checkNonFinite(t, srv, "NaN", odd)
	odd.SubOpt, odd.Events = 1, []telemetry.Event{{Kind: telemetry.Done, Budget: math.Inf(1)}}
	checkNonFinite(t, srv, "infinite event field", odd)
}

// checkNonFinite requires that encoding/json rejects the reply and that
// writeRunReply sends it as a 500 error envelope with code "internal".
func checkNonFinite(t *testing.T, srv *Server, name string, resp *runResponse) {
	t.Helper()
	if err := json.NewEncoder(io.Discard).Encode(resp); err == nil {
		t.Fatalf("%s: encoding/json accepted the reply", name)
	}
	w := httptest.NewRecorder()
	srv.writeRunReply(w, resp)
	var env map[string]apiError
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
		t.Fatalf("%s: body %q is not a JSON envelope: %v", name, w.Body, err)
	}
	if w.Code != http.StatusInternalServerError || env["error"].Code != codeInternal ||
		w.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("%s: status %d, content type %q, envelope %+v; want 500 %q", name, w.Code,
			w.Header().Get("Content-Type"), env, codeInternal)
	}
}

// TestWriteRunReplyNonFinite sends replies holding a NaN and an infinite
// event float through writeRunReply, and the replies of its neighbours
// without them: the former become 500 error envelopes, the latter 200s.
func TestWriteRunReplyNonFinite(t *testing.T) {
	srv := New()
	defer srv.Close()
	ok := func() *runResponse {
		return &runResponse{Algorithm: "planbouquet", TotalCost: 10, OptimalCost: 5, SubOpt: 2, Steps: 1,
			Events: []telemetry.Event{{Kind: telemetry.PlanExec, Dim: -1, Budget: 8, Spent: 8}}}
	}
	w := httptest.NewRecorder()
	srv.writeRunReply(w, ok())
	if w.Code != http.StatusOK || !json.Valid(w.Body.Bytes()) {
		t.Fatalf("finite reply: status %d, body %q", w.Code, w.Body)
	}
	nan := ok()
	nan.Events[0].Spent = math.NaN()
	checkNonFinite(t, srv, "NaN event field", nan)
	inf := ok()
	inf.Events = append(inf.Events, telemetry.Event{Kind: telemetry.Done, Dim: -1, TotalCost: math.Inf(-1)})
	checkNonFinite(t, srv, "infinite event field", inf)
}
