// Command tracesmoke is the end-to-end drill for the tracing surface, wired
// to `make trace-smoke`. It builds rqpd, boots it, and walks the whole
// correlation contract: a session is created and a run fired with a caller
// traceparent, the response must echo that trace identity (Traceparent
// header, X-Request-ID, the run document's traceId), the span tree must be
// served back at GET /v1/runs/{traceID}/trace with a sound parent/child
// structure, the flamegraph render must be well-formed XML, the error
// envelope must carry the trace ID in-band, and the OpenMetrics exposition
// must attach trace-ID exemplars to the histogram families. Exits non-zero
// on any failure.
package main

import (
	"encoding/json"
	"encoding/xml"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/smoke"
	"repro/internal/trace"
)

// The pinned caller trace identities: one for the session build (stamped on
// the create request), one for the run. Distinct, so the drill proves both
// tree kinds land under the trace ID the caller chose.
const (
	buildTraceparent = "00-aaaa0000aaaa0000aaaa0000aaaa0001-00f067aa0ba90201-01"
	runTraceparent   = "00-bbbb0000bbbb0000bbbb0000bbbb0002-00f067aa0ba90202-01"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracesmoke: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
	log.Print("PASS")
}

func run() error {
	dir, err := os.MkdirTemp("", "tracesmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	bin := filepath.Join(dir, "rqpd")
	if err := smoke.BuildDaemon(bin); err != nil {
		return err
	}
	addr, err := smoke.FreeAddr()
	if err != nil {
		return err
	}
	stop, err := smoke.StartDaemon(bin, "-addr", addr)
	if err != nil {
		return err
	}
	defer stop()

	base := "http://" + addr
	if err := smoke.Await(base+"/v1/healthz", 10*time.Second); err != nil {
		return fmt.Errorf("daemon never became healthy: %w", err)
	}

	buildTP, _ := trace.Parse(buildTraceparent)
	runTP, _ := trace.Parse(runTraceparent)

	// Create the session under the pinned build traceparent; the async ESS
	// build's span tree is recorded under this trace ID.
	id, err := createTraced(base, `{"query":"2D_EQ","gridRes":6}`, buildTraceparent)
	if err != nil {
		return err
	}
	if err := smoke.AwaitReady(base, id, 60*time.Second); err != nil {
		return err
	}

	// Fire the run with the caller's traceparent and check every echo.
	status, headers, body, err := doTraced(http.MethodPost, base+"/v1/sessions/"+id+"/run",
		`{"strategy":"spillbound","truth":[0.04,0.1]}`, runTraceparent)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("run: status %d: %s", status, body)
	}
	echo, err := trace.Parse(headers.Get("Traceparent"))
	if err != nil {
		return fmt.Errorf("run response Traceparent %q does not parse: %w", headers.Get("Traceparent"), err)
	}
	if echo.TraceID != runTP.TraceID {
		return fmt.Errorf("run response trace ID %s, want the caller's %s", echo.TraceID, runTP.TraceID)
	}
	if got := headers.Get("X-Request-ID"); got != runTP.TraceID {
		return fmt.Errorf("X-Request-ID %q, want trace ID %s", got, runTP.TraceID)
	}
	var runDoc struct {
		TraceID string  `json:"traceId"`
		SubOpt  float64 `json:"subOpt"`
	}
	if err := json.Unmarshal(body, &runDoc); err != nil {
		return fmt.Errorf("run response: %w", err)
	}
	if runDoc.TraceID != runTP.TraceID {
		return fmt.Errorf("run document traceId %q, want %s", runDoc.TraceID, runTP.TraceID)
	}
	log.Printf("run echoed caller trace %s", runTP.TraceID)

	// The span trees: the run's and the build's, each structurally sound.
	if err := checkTree(base, runTP.TraceID, trace.KindRun); err != nil {
		return err
	}
	if err := checkTree(base, buildTP.TraceID, trace.KindBuild); err != nil {
		return err
	}

	// The flamegraph must be well-formed XML for both.
	for _, tid := range []string{runTP.TraceID, buildTP.TraceID} {
		if err := checkSVG(base, tid); err != nil {
			return err
		}
	}

	// The error envelope carries the trace ID in-band and matches the header.
	if err := checkErrorEnvelope(base); err != nil {
		return err
	}

	// The OpenMetrics exposition attaches trace-ID exemplars.
	if err := checkExemplars(base); err != nil {
		return err
	}
	return nil
}

// createTraced POSTs the create payload under the given traceparent and
// returns the accepted session ID.
func createTraced(base, payload, traceparent string) (string, error) {
	status, _, body, err := doTraced(http.MethodPost, base+"/v1/sessions", payload, traceparent)
	if err != nil {
		return "", err
	}
	if status != http.StatusAccepted && status != http.StatusCreated {
		return "", fmt.Errorf("create session: status %d: %s", status, body)
	}
	var doc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &doc); err != nil || doc.ID == "" {
		return "", fmt.Errorf("create session: bad response: %s", body)
	}
	return doc.ID, nil
}

// doTraced issues one request carrying the given traceparent header.
func doTraced(method, url, body, traceparent string) (int, http.Header, []byte, error) {
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set("Traceparent", traceparent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, b, err
}

// checkTree fetches the span tree by trace ID and validates its structure:
// the advertised kind and trace ID, a present root, a span count matching
// the actual tree, unique span IDs, and parent/child closure (every child
// names its parent and lies within the parent's extent).
func checkTree(base, traceID, wantKind string) error {
	resp, err := http.Get(base + "/v1/runs/" + traceID + "/trace")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("trace %s: status %d: %s", traceID, resp.StatusCode, b)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		return fmt.Errorf("trace %s: content type %q", traceID, ct)
	}
	var t trace.Tree
	if err := json.NewDecoder(resp.Body).Decode(&t); err != nil {
		return fmt.Errorf("trace %s: %w", traceID, err)
	}
	if t.TraceID != traceID || t.Kind != wantKind || t.Root == nil {
		return fmt.Errorf("trace %s: kind %q root %v, want kind %q with a root", traceID, t.Kind, t.Root != nil, wantKind)
	}
	seen := map[string]bool{}
	count := 0
	var walk func(sp *trace.Span) error
	walk = func(sp *trace.Span) error {
		count++
		if sp.SpanID == "" || seen[sp.SpanID] {
			return fmt.Errorf("trace %s: span ID %q empty or duplicated", traceID, sp.SpanID)
		}
		seen[sp.SpanID] = true
		for _, c := range sp.Children {
			if c.ParentID != sp.SpanID {
				return fmt.Errorf("trace %s: span %s names parent %q, is child of %s", traceID, c.SpanID, c.ParentID, sp.SpanID)
			}
			if c.Start < sp.Start || c.End > sp.End {
				return fmt.Errorf("trace %s: span %s [%g,%g] escapes parent [%g,%g]",
					traceID, c.SpanID, c.Start, c.End, sp.Start, sp.End)
			}
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	if t.Root.ParentID != "" {
		return fmt.Errorf("trace %s: root has parent %q", traceID, t.Root.ParentID)
	}
	if err := walk(t.Root); err != nil {
		return err
	}
	if count != t.Spans || count < 2 {
		return fmt.Errorf("trace %s: %d spans walked, tree advertises %d", traceID, count, t.Spans)
	}
	log.Printf("trace %s: %s tree sound, %d spans", traceID, wantKind, count)
	return nil
}

// checkSVG fetches the flamegraph and requires well-formed XML.
func checkSVG(base, traceID string) error {
	resp, err := http.Get(base + "/v1/runs/" + traceID + "/trace?format=svg")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("flamegraph %s: status %d", traceID, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "image/svg+xml") {
		return fmt.Errorf("flamegraph %s: content type %q", traceID, ct)
	}
	dec := xml.NewDecoder(resp.Body)
	elements := 0
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("flamegraph %s is not well-formed XML: %w", traceID, err)
		}
		if _, ok := tok.(xml.StartElement); ok {
			elements++
		}
	}
	if elements < 3 {
		return fmt.Errorf("flamegraph %s: only %d elements (empty render?)", traceID, elements)
	}
	log.Printf("flamegraph %s: well-formed, %d elements", traceID, elements)
	return nil
}

// checkErrorEnvelope hits a missing resource and requires the 404 envelope
// to carry the trace ID in-band, matching the response headers.
func checkErrorEnvelope(base string) error {
	resp, err := http.Get(base + "/v1/sessions/no-such-session")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		return fmt.Errorf("missing session: status %d, want 404", resp.StatusCode)
	}
	var doc struct {
		Error struct {
			Code    string `json:"code"`
			TraceID string `json:"traceId"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return fmt.Errorf("error envelope: %w", err)
	}
	if doc.Error.TraceID == "" || doc.Error.TraceID != resp.Header.Get("X-Request-ID") {
		return fmt.Errorf("error envelope traceId %q, header %q — must match and be set",
			doc.Error.TraceID, resp.Header.Get("X-Request-ID"))
	}
	log.Printf("error envelope carries trace %s", doc.Error.TraceID)
	return nil
}

// checkExemplars scrapes the OpenMetrics flavor and requires at least one
// histogram bucket exemplar carrying a trace_id, plus the runtime gauges the
// classic exposition also serves.
func checkExemplars(base string) error {
	fams, err := smoke.ScrapeOpenMetrics(base)
	if err != nil {
		return err
	}
	for _, want := range []string{"rqp_goroutines", "rqp_heap_bytes", "rqp_sessions_active",
		"rqp_session_build_duration_seconds", "rqp_trace_spans_total"} {
		if fams[want] == nil {
			return fmt.Errorf("openmetrics exposition missing family %s", want)
		}
	}
	exemplars := 0
	for _, fam := range []string{"rqp_request_duration_seconds", "rqp_suboptimality"} {
		f := fams[fam]
		if f == nil {
			return fmt.Errorf("openmetrics exposition missing family %s", fam)
		}
		for _, s := range f.Samples {
			if s.Exemplar == nil {
				continue
			}
			tid := s.Exemplar.Labels["trace_id"]
			if len(tid) != 32 {
				return fmt.Errorf("family %s: exemplar trace_id %q is not a 32-hex trace ID", fam, tid)
			}
			exemplars++
		}
	}
	if exemplars == 0 {
		return fmt.Errorf("no bucket exemplars in the OpenMetrics exposition after a traced run")
	}
	log.Printf("openmetrics: %d bucket exemplars with trace IDs", exemplars)
	return nil
}
