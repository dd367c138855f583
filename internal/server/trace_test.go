package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	repro "repro"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

const testTraceparent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"

// postTraced posts JSON with a caller-supplied Traceparent header.
func postTraced(t *testing.T, url, traceparent string, payload any) (*http.Response, map[string]any) {
	t.Helper()
	body, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		req.Header.Set("Traceparent", traceparent)
	}
	resp, err := http.DefaultClient.Do(req)
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

func TestTraceMiddlewareEchoMintAndMalformed(t *testing.T) {
	ts := testServer(t)

	// A valid inbound traceparent is joined: the response echoes it and
	// X-Request-ID is its trace ID.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/healthz", nil)
	req.Header.Set("Traceparent", testTraceparent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("Traceparent"); got != testTraceparent {
		t.Errorf("echoed traceparent %q, want %q", got, testTraceparent)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("X-Request-ID = %q, want the inbound trace ID", got)
	}

	// No header and a malformed header both mint a fresh valid trace.
	for _, inbound := range []string{"", "garbage", "00-zzzz-0000-01"} {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/healthz", nil)
		if inbound != "" {
			req.Header.Set("Traceparent", inbound)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		tp, err := trace.Parse(resp.Header.Get("Traceparent"))
		if err != nil {
			t.Fatalf("inbound %q: response traceparent %q invalid: %v",
				inbound, resp.Header.Get("Traceparent"), err)
		}
		if tp.TraceID == "4bf92f3577b34da6a3ce929d0e0e4736" {
			t.Errorf("inbound %q joined instead of restarting the trace", inbound)
		}
		if resp.Header.Get("X-Request-ID") != tp.TraceID {
			t.Errorf("X-Request-ID %q != trace ID %q", resp.Header.Get("X-Request-ID"), tp.TraceID)
		}
	}
}

func TestRunTraceEndpoint(t *testing.T) {
	ts := testServer(t)
	id := createSession(t, ts.URL, map[string]any{"query": "2D_EQ", "gridRes": 6})

	resp, run := postTraced(t, ts.URL+"/v1/sessions/"+id+"/run", testTraceparent, map[string]any{
		"strategy": "spillbound", "truth": []float64{0.02, 0.3},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run status %d: %v", resp.StatusCode, run)
	}
	traceID, _ := run["traceId"].(string)
	if traceID != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("run traceId = %q, want the caller's trace ID", traceID)
	}

	// JSON: a run tree rooted at the caller's trace.
	var tree struct {
		TraceID string `json:"traceId"`
		Kind    string `json:"kind"`
		Spans   int    `json:"spans"`
		Root    *trace.Span
	}
	if r := getJSON(t, ts.URL+"/v1/runs/"+traceID+"/trace", &tree); r.StatusCode != http.StatusOK {
		t.Fatalf("get trace status %d", r.StatusCode)
	}
	if tree.TraceID != traceID || tree.Kind != trace.KindRun || tree.Root == nil || tree.Spans < 2 {
		t.Fatalf("trace tree = kind %q spans %d traceId %q", tree.Kind, tree.Spans, tree.TraceID)
	}

	// SVG: the flamegraph rendering with its content type.
	svgResp, err := http.Get(ts.URL + "/v1/runs/" + traceID + "/trace?format=svg")
	if err != nil {
		t.Fatal(err)
	}
	defer svgResp.Body.Close()
	if ct := svgResp.Header.Get("Content-Type"); ct != "image/svg+xml" {
		t.Errorf("svg content type %q", ct)
	}

	// Unknown formats are a 400, unknown traces a 404 that still carries the
	// in-band trace ID for correlation.
	var bad map[string]any
	if r := getJSON(t, ts.URL+"/v1/runs/"+traceID+"/trace?format=bogus", &bad); r.StatusCode != http.StatusBadRequest {
		t.Errorf("bad format status %d", r.StatusCode)
	}
	var missing map[string]any
	r := getJSON(t, ts.URL+"/v1/runs/"+strings.Repeat("0", 31)+"1/trace", &missing)
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("missing trace status %d", r.StatusCode)
	}
	env, _ := missing["error"].(map[string]any)
	if env == nil || env["traceId"] != r.Header.Get("X-Request-ID") {
		t.Errorf("error envelope traceId %v != X-Request-ID %q", env, r.Header.Get("X-Request-ID"))
	}
}

func TestBuildTraceEndpoint(t *testing.T) {
	ts := testServer(t)
	resp, created := postTraced(t, ts.URL+"/v1/sessions", testTraceparent, map[string]any{
		"query": "2D_EQ", "gridRes": 6,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create status %d: %v", resp.StatusCode, created)
	}
	awaitReady(t, ts.URL, created["id"].(string))

	var tree struct {
		Kind  string `json:"kind"`
		Spans int    `json:"spans"`
	}
	if r := getJSON(t, ts.URL+"/v1/runs/4bf92f3577b34da6a3ce929d0e0e4736/trace", &tree); r.StatusCode != http.StatusOK {
		t.Fatalf("get build trace status %d", r.StatusCode)
	}
	if tree.Kind != trace.KindBuild || tree.Spans < 2 {
		t.Errorf("build tree kind %q spans %d", tree.Kind, tree.Spans)
	}
}

func TestTraceSampling(t *testing.T) {
	// Negative disables retention entirely; the run itself is unaffected.
	srv, ts := overloadServer(t, Config{TraceSample: -1})
	id := createSession(t, ts.URL, map[string]any{"query": "2D_EQ", "gridRes": 6})
	resp, run := postTraced(t, ts.URL+"/v1/sessions/"+id+"/run", testTraceparent, map[string]any{
		"strategy": "spillbound", "truth": []float64{0.02, 0.3},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run status %d: %v", resp.StatusCode, run)
	}
	if run["traceId"] != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("unsampled run lost its traceId: %v", run["traceId"])
	}
	if n := srv.traces.len(); n != 0 {
		t.Errorf("trace store holds %d trees with sampling disabled", n)
	}
	var missing map[string]any
	if r := getJSON(t, ts.URL+"/v1/runs/4bf92f3577b34da6a3ce929d0e0e4736/trace", &missing); r.StatusCode != http.StatusNotFound {
		t.Errorf("unsampled trace served with status %d", r.StatusCode)
	}

	// The zero config keeps everything (observability by default).
	if rate := (&Server{}).sampleRate(); rate != 1 {
		t.Errorf("zero-config sample rate = %g, want 1", rate)
	}
}

func TestTraceStoreFIFOAndReplacement(t *testing.T) {
	ts := newTraceStore(2)
	mk := func(i int) *trace.Tree {
		return trace.FromRun(strings.Repeat("0", 30)+strconv.Itoa(10+i), []telemetry.Event{
			{Kind: telemetry.Done, Algorithm: "spillbound", TotalCost: float64(i), Dim: -1},
		})
	}
	a, b, c := mk(0), mk(1), mk(2)
	ts.put(a)
	ts.put(b)
	ts.put(c)
	if ts.len() != 2 {
		t.Fatalf("store holds %d trees, want cap 2", ts.len())
	}
	if _, ok := ts.get(a.TraceID); ok {
		t.Error("oldest trace not evicted")
	}
	if _, ok := ts.get(c.TraceID); !ok {
		t.Error("newest trace missing")
	}

	// A resumed incarnation replaces its trace in place: same ID, no
	// eviction, no duplicate FIFO entry.
	b2 := trace.FromRun(b.TraceID, []telemetry.Event{
		{Kind: telemetry.RunResume, Detail: "r1", Spent: 5, Dim: -1},
		{Kind: telemetry.Done, Algorithm: "spillbound", TotalCost: 9, Dim: -1},
	})
	ts.put(b2)
	if ts.len() != 2 {
		t.Errorf("replacement grew the store to %d", ts.len())
	}
	got, _ := ts.get(b.TraceID)
	if got != b2 {
		t.Error("replacement did not take")
	}
	if len(ts.order) != 2 {
		t.Errorf("FIFO order has %d entries, want 2", len(ts.order))
	}

	// nil and empty-ID trees are ignored.
	ts.put(nil)
	ts.put(&trace.Tree{})
	if ts.len() != 2 {
		t.Errorf("nil/empty put changed the store: %d", ts.len())
	}
}

// TestTraceStoreDerivesOnce reads a stream-backed trace twice: the first
// read derives the tree and keeps it beside the stream, so the second serves
// the same tree and a byte-identical reply, and the stream still serves the
// run resource. A resumed incarnation's stream then replaces the kept tree,
// and the next read shows the new incarnation.
func TestTraceStoreDerivesOnce(t *testing.T) {
	srv := &Server{traces: newTraceStore(2)}
	id := strings.Repeat("0", 30) + "42"
	read := func() []byte {
		t.Helper()
		req := httptest.NewRequest(http.MethodGet, "/v1/runs/"+id+"/trace", nil)
		req.SetPathValue("id", id)
		rec := httptest.NewRecorder()
		srv.handleGetTrace(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("get trace status %d: %s", rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	treeJSON := func(events []telemetry.Event) []byte {
		t.Helper()
		b, err := trace.FromRun(id, events).JSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	first := []telemetry.Event{
		{Kind: telemetry.ContourEnter, Contour: 1, Budget: 4, Dim: -1},
		{Kind: telemetry.Done, Algorithm: "spillbound", TotalCost: 3, Dim: -1},
	}
	srv.traces.putEvents(id, trace.KindRun, first)
	a := read()
	kept, _ := srv.traces.get(id)
	b := read()
	if again, _ := srv.traces.get(id); again != kept {
		t.Error("second read derived the tree again")
	}
	if !bytes.Equal(a, b) || !bytes.Equal(a, treeJSON(first)) {
		t.Errorf("reads differ or are not the derived tree:\n%s\n%s", a, b)
	}
	if e := srv.traces.entries[id]; len(e.events) != len(first) {
		t.Errorf("a read dropped the stream its run resource serves: %v", e.events)
	}

	resumed := []telemetry.Event{
		{Kind: telemetry.RunResume, Detail: "r1", Spent: 5, Dim: -1},
		{Kind: telemetry.Done, Algorithm: "spillbound", TotalCost: 9, Dim: -1},
	}
	srv.traces.putEvents(id, trace.KindRun, resumed)
	if got := read(); !bytes.Equal(got, treeJSON(resumed)) {
		t.Errorf("read after resume served %s, want the new incarnation", got)
	}
	if len(srv.traces.order) != 1 {
		t.Errorf("FIFO order has %d entries, want 1", len(srv.traces.order))
	}
}

func TestShedCarriesRequestID(t *testing.T) {
	srv, ts := overloadServer(t, Config{MaxConcurrentRuns: 1})
	id := createSession(t, ts.URL, map[string]any{"query": "2D_EQ", "gridRes": 6})
	if !srv.runLimiter.TryAcquire() {
		t.Fatal("could not pre-fill the run limiter")
	}
	defer srv.runLimiter.Release(true)

	resp, body := postTraced(t, ts.URL+"/v1/sessions/"+id+"/run", testTraceparent, map[string]any{
		"strategy": "spillbound", "truth": []float64{0.02, 0.3},
	})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed status = %d, want 429: %v", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("shed X-Request-ID = %q, want the caller's trace ID", got)
	}
	if got := resp.Header.Get("Traceparent"); got != testTraceparent {
		t.Errorf("shed traceparent = %q", got)
	}
	env, _ := body["error"].(map[string]any)
	if env == nil || env["traceId"] != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("shed envelope traceId = %v", env)
	}
}

func TestTraceMiddlewareUnit(t *testing.T) {
	// The middleware exposes the traceparent on the request context.
	srv := New()
	defer srv.Close()
	var got trace.Traceparent
	var ok bool
	h := srv.traceMiddleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got, ok = trace.FromContext(r.Context())
	}))
	req := httptest.NewRequest(http.MethodGet, "/", nil)
	req.Header.Set("Traceparent", testTraceparent)
	h.ServeHTTP(httptest.NewRecorder(), req)
	if !ok || got.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" || !got.Sampled {
		t.Errorf("context traceparent = %+v, %v", got, ok)
	}
}

// replyEvents decodes a run reply's event stream.
func replyEvents(t *testing.T, reply map[string]any) []telemetry.Event {
	t.Helper()
	b, err := json.Marshal(reply["events"])
	if err != nil {
		t.Fatal(err)
	}
	var events []telemetry.Event
	if err := json.Unmarshal(b, &events); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatalf("reply carries no events: %v", reply)
	}
	return events
}

// requireTraceRead fails unless GET /v1/runs/{traceId}/trace serves want's
// JSON byte for byte, and returns want's span count.
func requireTraceRead(t *testing.T, baseURL string, want *trace.Tree) int {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/runs/" + want.TraceID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := want.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, wantJSON) {
		t.Fatalf("trace %s (status %d) is not the %s tree derived from its events:\n%s\nwant:\n%s",
			want.TraceID, resp.StatusCode, want.Kind, got, wantJSON)
	}
	return want.Spans
}

// TestTraceReadDerivesFromEvents checks that the trace store's trees, built
// when read, equal FromRun and FromBuild over the events the request
// produced (the run replies' events, the build's recorder), for every
// discovery strategy, a degraded run and a session build; and that
// rqp_trace_spans_total, counted from the events at record time, moves by
// exactly the served trees' spans.
func TestTraceReadDerivesFromEvents(t *testing.T) {
	built := make(chan []telemetry.Event, 1)
	orig := buildSession
	buildSession = func(ctx context.Context, bq workload.Spec, o repro.Options) (*repro.Session, error) {
		sess, err := orig(ctx, bq, o)
		built <- telemetry.From(ctx).Events()
		return sess, err
	}
	t.Cleanup(func() { buildSession = orig })
	srv, ts := overloadServer(t, Config{})
	before := srv.metrics.traceSpans.Value()

	resp, created := postTraced(t, ts.URL+"/v1/sessions", testTraceparent, map[string]any{
		"query": "2D_EQ", "gridRes": 6,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create status %d: %v", resp.StatusCode, created)
	}
	id := created["id"].(string)
	awaitReady(t, ts.URL, id)
	buildID, _ := trace.Parse(testTraceparent)
	spans := requireTraceRead(t, ts.URL, trace.FromBuild(buildID.TraceID, <-built))

	degraded := false
	for _, req := range []map[string]any{
		{"strategy": "spillbound", "truth": []float64{0.02, 0.3}},
		{"strategy": "planbouquet", "truth": []float64{0.02, 0.3}},
		{"strategy": "alignedbound", "truth": []float64{0.5, 0.001}},
		// At scenario seed 1, adversarial-6 fails the first execution three
		// times in a row, one failure past the two retries: the run degrades.
		{"strategy": "spillbound", "truth": []float64{0.9, 0.9}, "scenario": "adversarial-6"},
	} {
		resp, run := postJSON(t, ts.URL+"/v1/sessions/"+id+"/run", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %v: status %d: %v", req, resp.StatusCode, run)
		}
		degraded = degraded || run["degraded"] == true
		traceID := run["traceId"].(string)
		spans += requireTraceRead(t, ts.URL, trace.FromRun(traceID, replyEvents(t, run)))
	}
	if !degraded {
		t.Error("the adversarial-6 run did not degrade")
	}
	if got := srv.metrics.traceSpans.Value() - before; got != float64(spans) {
		t.Errorf("rqp_trace_spans_total moved by %g, served trees hold %d spans", got, spans)
	}
}

// TestTraceReadResumedRun checks the tree of a crash-resumed durable run:
// the recovering server retains the resumed incarnation's events, and the
// tree it serves is FromRun over the run resource's events.
func TestTraceReadResumedRun(t *testing.T) {
	dir := t.TempDir()
	sid := newDurableSession(t, dir)
	crashRun(t, dir, sid, repro.PlanBouquet, "r1")

	srv2, ts2 := overloadServer(t, Config{DataDir: dir})
	if err := srv2.Recover(context.Background()); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	resumed := awaitRunResumed(t, ts2.URL, sid, "r1")
	tree := trace.FromRun(resumed["traceId"].(string), replyEvents(t, resumed))
	if tree.Root.Attrs["resumed"] != "true" {
		t.Fatalf("resumed run's tree has no run_resume marker: %v", tree.Root.Attrs)
	}
	spans := requireTraceRead(t, ts2.URL, tree)
	if got := srv2.metrics.traceSpans.Value(); got != float64(spans) {
		t.Errorf("rqp_trace_spans_total = %g on the recovering server, resumed tree holds %d spans", got, spans)
	}
}
