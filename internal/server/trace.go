// Server-side tracing: the traceparent middleware (every request joins or
// starts a W3C trace; the response echoes the traceparent and an
// X-Request-ID so even 429/503/504 sheds are correlatable), the bounded
// in-memory trace store behind GET /v1/runs/{id}/trace, and head sampling.
// The store keeps event streams and derives a span tree when one is first
// read; a run's stream also backs the events of its durable run resource.

package server

import (
	"fmt"
	"io"
	"net/http"
	"sync"

	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/viz"
)

// traceStoreCap bounds the in-memory trace store: a FIFO of the most recent
// sampled traces, enough for dashboards and smokes to follow an exemplar
// without letting a long-lived daemon grow without bound.
const traceStoreCap = 512

// traceEntry is one retained trace: a request's event stream, from which the
// first read derives the span tree of kind, and that tree once derived; or
// a tree stored as built.
type traceEntry struct {
	kind   string
	events []telemetry.Event
	tree   *trace.Tree
}

// traceStore is the bounded trace-ID → trace map. It keeps event streams
// rather than span trees: a tree is several times the size of its stream,
// and most retained traces are never read. A read trace keeps its tree
// beside its stream, so later reads do not derive it again and the stream
// still serves its run resource.
type traceStore struct {
	mu      sync.Mutex
	cap     int
	order   []string // insertion order for FIFO eviction
	entries map[string]traceEntry
}

func newTraceStore(capacity int) *traceStore {
	return &traceStore{cap: capacity, entries: make(map[string]traceEntry)}
}

// put stores (or replaces) a built tree.
func (ts *traceStore) put(t *trace.Tree) {
	if t == nil || t.TraceID == "" {
		return
	}
	ts.store(t.TraceID, traceEntry{tree: t})
}

// putEvents stores (or, for a resumed run's incarnation, replaces) the event
// stream of a trace whose tree of kind is derived on read.
func (ts *traceStore) putEvents(id, kind string, events []telemetry.Event) {
	if id == "" {
		return
	}
	ts.store(id, traceEntry{kind: kind, events: events})
}

// store inserts or replaces id's entry, evicting the oldest past the cap.
func (ts *traceStore) store(id string, e traceEntry) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if _, exists := ts.entries[id]; !exists {
		ts.order = append(ts.order, id)
		for len(ts.order) > ts.cap {
			delete(ts.entries, ts.order[0])
			ts.order = ts.order[1:]
		}
	}
	ts.entries[id] = e
}

// get looks a trace up by ID, deriving its tree from a retained stream on
// the first read. The derivation runs under the store lock, so a resumed
// run's putEvents either precedes it, and the tree is the new
// incarnation's, or follows it and replaces the derived tree.
func (ts *traceStore) get(id string) (*trace.Tree, bool) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	e, ok := ts.entries[id]
	if !ok {
		return nil, false
	}
	if e.tree == nil {
		e.tree = trace.Derive(e.kind, id, e.events)
		ts.entries[id] = e
	}
	return e.tree, true
}

// runEvents returns the retained event stream of durable run runID under
// trace id: nil when the store never kept it (unsampled, brownout), has
// evicted it, or holds a later run's stream under the same trace ID. Every
// durable run checkpoints before its first execution, and its checkpoint
// saves name it.
func (ts *traceStore) runEvents(id, runID string) []telemetry.Event {
	ts.mu.Lock()
	e := ts.entries[id]
	ts.mu.Unlock()
	if e.kind != trace.KindRun {
		return nil
	}
	for _, ev := range e.events {
		if ev.Kind == telemetry.CheckpointSave && ev.Detail == runID {
			return e.events
		}
	}
	return nil
}

// len reports the stored trace count.
func (ts *traceStore) len() int {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return len(ts.entries)
}

// sampleRate resolves the configured head-sampling rate: the zero Config
// keeps every trace (observability by default), negative keeps none.
func (s *Server) sampleRate() float64 {
	switch {
	case s.cfg.TraceSample == 0:
		return 1
	case s.cfg.TraceSample < 0:
		return 0
	}
	return s.cfg.TraceSample
}

// keepTrace decides retention for a trace, deterministically from its ID —
// except under brownout (stage ≥ 1), where sampling drops to zero: trace
// retention is the first optional work to go when the node is degrading.
func (s *Server) keepTrace(traceID string) bool {
	if s.Stage() >= 1 {
		return false
	}
	return trace.Sample(traceID, s.sampleRate())
}

// recordTrace retains a request's event stream for GET /v1/runs/{id}/trace
// to derive its span tree of kind (trace.KindRun or trace.KindBuild), and
// counts the tree's spans from the events. Retention is decided first, so an
// unsampled trace (and every trace under brownout) costs nothing; a kept one
// costs a pass over its events, and no tree is built until one is read.
func (s *Server) recordTrace(traceID, kind string, events []telemetry.Event) {
	if s.keepTrace(traceID) {
		s.traces.putEvents(traceID, kind, events)
		s.metrics.traceSpans.Add(float64(trace.SpanCount(kind, events)))
	}
}

// traceMiddleware gives every request a trace identity before any handler
// (or shed path) runs: an inbound traceparent header is joined, anything
// else starts a fresh trace. The response always carries the Traceparent
// header and an X-Request-ID (the trace ID) — set eagerly, so overload
// rejections and panics are just as correlatable as successes — and the
// request context carries the Traceparent for handlers and instrumentation.
func (s *Server) traceMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tp, err := trace.Parse(r.Header.Get("Traceparent"))
		if r.Header.Get("Traceparent") == "" || err != nil {
			// Per trace-context semantics a malformed header restarts the
			// trace rather than failing the request.
			tp = trace.New()
		}
		w.Header().Set("Traceparent", tp.Header())
		w.Header().Set("X-Request-ID", tp.TraceID)
		next.ServeHTTP(w, r.WithContext(trace.WithContext(r.Context(), tp)))
	})
}

// handleGetTrace serves GET /v1/runs/{id}/trace: the span tree of a
// sampled run (or session build) by trace ID, as JSON or, with format=svg,
// as a flamegraph.
func (s *Server) handleGetTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	t, ok := s.traces.get(id)
	if !ok {
		s.writeError(w, http.StatusNotFound, codeNotFound,
			fmt.Errorf("no trace %q (not sampled, evicted, or never recorded)", id))
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		b, err := t.JSON()
		if err != nil {
			s.writeError(w, http.StatusInternalServerError, codeInternal, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(b)
	case "svg":
		w.Header().Set("Content-Type", "image/svg+xml")
		_, _ = io.WriteString(w, viz.Flamegraph(t))
	default:
		s.writeError(w, http.StatusBadRequest, codeBadRequest,
			fmt.Errorf("unknown trace format %q (want json or svg)", format))
	}
}
