package main

import (
	"bytes"
	"encoding/json"
	"encoding/xml"
	"fmt"
	"io"
	"log"
	"net/http"
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

// traceDrill walks the tracing correlation contract end to end
// (`make trace-smoke`). A session is created and a run fired with a caller
// traceparent; the response must echo that trace identity (Traceparent
// header, X-Request-ID, the run document's traceId), sound run and build
// span trees must be served at GET /v1/runs/{traceID}/trace, the
// flamegraph render must be well-formed XML, the error envelope must carry
// the trace ID in-band, and the OpenMetrics exposition must attach
// trace-ID exemplars to the histogram families.
func traceDrill(bin, _ string) error {
	d, err := smoke.Boot(bin)
	if err != nil {
		return err
	}
	defer d.Stop()
	base := d.Base()

	buildTP, _ := trace.Parse(buildTraceparent)
	runTP, _ := trace.Parse(runTraceparent)

	// Create the session under the pinned build traceparent; the async ESS
	// build's span tree is recorded under this trace ID.
	id, _, err := smoke.CreateSession(base, `{"query":"2D_EQ","gridRes":6}`,
		map[string]string{"Traceparent": buildTraceparent})
	if err != nil {
		return err
	}
	if err := smoke.AwaitReady(base, id, 60*time.Second); err != nil {
		return err
	}

	// Fire the run with the caller's traceparent and check every echo.
	status, headers, body, err := smoke.Do(http.MethodPost, base+"/v1/sessions/"+id+"/run",
		`{"strategy":"spillbound","truth":[0.04,0.1]}`, map[string]string{"Traceparent": runTraceparent})
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
		TraceID string `json:"traceId"`
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
	return checkExemplars(base)
}

// getTyped fetches url, requires a 200 with the given Content-Type prefix,
// and returns the body.
func getTyped(url, contentType string) ([]byte, error) {
	status, h, b, err := smoke.Do(http.MethodGet, url, "", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", url, status, b)
	}
	if ct := h.Get("Content-Type"); !strings.HasPrefix(ct, contentType) {
		return nil, fmt.Errorf("GET %s: content type %q", url, ct)
	}
	return b, nil
}

// checkTree fetches the span tree by trace ID and validates its structure:
// the advertised kind and trace ID, a present root, a span count matching
// the actual tree, unique span IDs, and parent/child closure (every child
// names its parent and lies within the parent's extent).
func checkTree(base, traceID, wantKind string) error {
	b, err := getTyped(base+"/v1/runs/"+traceID+"/trace", "application/json")
	if err != nil {
		return err
	}
	var t trace.Tree
	if err := json.Unmarshal(b, &t); err != nil {
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
	b, err := getTyped(base+"/v1/runs/"+traceID+"/trace?format=svg", "image/svg+xml")
	if err != nil {
		return fmt.Errorf("flamegraph %s: %w", traceID, err)
	}
	dec := xml.NewDecoder(bytes.NewReader(b))
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
	status, h, b, err := smoke.Do(http.MethodGet, base+"/v1/sessions/no-such-session", "", nil)
	if err != nil {
		return err
	}
	if status != http.StatusNotFound {
		return fmt.Errorf("missing session: status %d, want 404", status)
	}
	var doc struct {
		Error struct {
			TraceID string `json:"traceId"`
		} `json:"error"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return fmt.Errorf("error envelope: %w", err)
	}
	if doc.Error.TraceID == "" || doc.Error.TraceID != h.Get("X-Request-ID") {
		return fmt.Errorf("error envelope traceId %q, header %q — must match and be set",
			doc.Error.TraceID, h.Get("X-Request-ID"))
	}
	log.Printf("error envelope carries trace %s", doc.Error.TraceID)
	return nil
}

// checkExemplars scrapes the OpenMetrics flavor and requires at least one
// histogram bucket exemplar carrying a trace_id, plus the runtime gauges the
// classic exposition also serves.
func checkExemplars(base string) error {
	fams, err := smoke.Scrape(base, smoke.OpenMetrics)
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
