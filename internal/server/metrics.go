// Server-side process metrics: every instrument the HTTP layer populates,
// registered on one per-Server telemetry.Registry and exposed in the
// Prometheus text format at GET /v1/metrics.
// Instrumentation happens at route-registration time — each handler is
// wrapped with its route pattern — so the request path never does pattern
// lookups and the registry's atomic cells are the only shared state.

package server

import (
	"net/http"
	"runtime"
	"strings"
	"time"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// latencyBuckets spans sub-millisecond health checks to multi-second sweeps.
var latencyBuckets = []float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}

// subOptBuckets covers the sub-optimality range the paper cares about: 1
// (oracle-optimal) through SpillBound's D²+3D ceiling for the benchmark
// dimensionalities and beyond for degraded runs.
var subOptBuckets = []float64{1, 1.5, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64, 128}

// buildBuckets tracks ESS construction wall time in seconds.
var buildBuckets = []float64{0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60, 120, 300}

// serverMetrics bundles the server's instruments around one registry.
type serverMetrics struct {
	reg *telemetry.Registry

	requests *telemetry.CounterVec   // route, method, status
	latency  *telemetry.HistogramVec // route
	inflight *telemetry.Gauge

	runs    *telemetry.CounterVec // algorithm, outcome
	retries *telemetry.Counter
	subOpt  *telemetry.Histogram
	maxSub  *telemetry.Gauge
	guard   *telemetry.CounterVec // verdict

	builds        *telemetry.CounterVec // result
	buildCells    *telemetry.Counter
	buildDuration *telemetry.Histogram

	checkpoints *telemetry.Counter
	resumes     *telemetry.Counter
	traceSpans  *telemetry.Counter

	inflightClass *telemetry.GaugeVec   // class (run, build)
	shed          *telemetry.CounterVec // class, reason
}

func newServerMetrics(s *Server) *serverMetrics {
	reg := telemetry.NewRegistry()
	m := &serverMetrics{
		reg: reg,
		requests: reg.CounterVec("rqp_requests_total",
			"HTTP requests served, by route pattern, method and status class.",
			"route", "method", "status"),
		latency: reg.HistogramVec("rqp_request_duration_seconds",
			"HTTP request latency in seconds, by route pattern.",
			latencyBuckets, "route"),
		inflight: reg.Gauge("rqp_requests_inflight",
			"HTTP requests currently being served."),
		runs: reg.CounterVec("rqp_runs_total",
			"Query processing runs, by algorithm and outcome (ok, degraded, error).",
			"algorithm", "outcome"),
		retries: reg.Counter("rqp_run_retries_total",
			"Execution-step retry attempts absorbed by the resilience layer."),
		subOpt: reg.Histogram("rqp_suboptimality",
			"Observed run sub-optimality (total cost over oracle-optimal cost, Eq. 3).",
			subOptBuckets),
		maxSub: reg.Gauge("rqp_suboptimality_max",
			"High-water sub-optimality observed since process start (empirical MSO)."),
		guard: reg.CounterVec("rqp_guard_interventions_total",
			"Runtime-guard interventions on served runs, by verdict (budget_abort, ess_escape).",
			"verdict"),
		builds: reg.CounterVec("rqp_session_builds_total",
			"Asynchronous ESS session builds, by result (ok, failed).",
			"result"),
		buildCells: reg.Counter("rqp_build_cells_optimized_total",
			"ESS grid cells optimized across all session builds."),
		buildDuration: reg.Histogram("rqp_session_build_duration_seconds",
			"Wall time of asynchronous ESS session builds in seconds.",
			buildBuckets),
		checkpoints: reg.Counter("rqp_checkpoints_total",
			"Durable run-state snapshots persisted at contour boundaries."),
		resumes: reg.Counter("rqp_resumes_total",
			"Durable runs resumed from a crash checkpoint after recovery."),
		traceSpans: reg.Counter("rqp_trace_spans_total",
			"Spans recorded into the in-memory trace store across all sampled traces."),
		inflightClass: reg.GaugeVec("rqp_inflight",
			"In-flight guarded work admitted by the overload limiters, by class (run, build).",
			"class"),
		shed: reg.CounterVec("rqp_shed_total",
			"Requests shed by overload control, by class (run, build) and reason (limiter, bulkhead, breaker, brownout).",
			"class", "reason"),
	}
	reg.GaugeFunc("rqp_sessions", "Live sessions in the registry.",
		func() float64 { return float64(s.SessionCount()) })
	reg.GaugeFunc("rqp_sessions_building", "Sessions whose ESS build is still in flight.",
		func() float64 { return float64(s.buildingCount()) })
	reg.GaugeFunc("rqp_breaker_state",
		"Session-build circuit breaker state: 0 closed, 1 open, 2 half-open.",
		func() float64 { return float64(s.breaker.State()) })
	reg.GaugeFunc("rqp_brownout_stage",
		"Staged brownout level: 0 normal, 1 no hedges/sampling, 2 shed expensive reads, 3 shed builds, 4 full shed.",
		func() float64 { return float64(s.Stage()) })
	// Process resource gauges, sampled at scrape time: the in-band signal
	// the overload story (AIMD limiters, sheds) can be correlated against.
	reg.GaugeFunc("rqp_goroutines", "Live goroutines, sampled at scrape time.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.GaugeFunc("rqp_heap_bytes", "Heap bytes in use (runtime.MemStats.HeapAlloc), sampled at scrape time.",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapAlloc)
		})
	reg.GaugeFunc("rqp_sessions_active", "Ready (built, servable) sessions in the registry.",
		func() float64 { return float64(s.readyCount()) })
	// Pre-touch both classes so the families render on the first scrape even
	// before any guarded work arrives.
	m.inflightClass.With("run").Set(0)
	m.inflightClass.With("build").Set(0)
	return m
}

// setInflight mirrors a limiter's in-flight count into the class gauge.
func (m *serverMetrics) setInflight(class string, n int) {
	m.inflightClass.With(class).Set(float64(n))
}

// observeRun records one run outcome: the outcome-labeled counter, the
// retry count, and the sub-optimality distribution plus its high-water
// mark. traceID, when non-empty, becomes the landing bucket's exemplar, so
// an operator can jump from a moved rqp_suboptimality bucket straight to
// the span tree that moved it.
func (m *serverMetrics) observeRun(algorithm string, degraded bool, retries int, subOpt float64, traceID string) {
	outcome := "ok"
	if degraded {
		outcome = "degraded"
	}
	m.runs.With(algorithm, outcome).Inc()
	m.retries.Add(float64(retries))
	if subOpt > 0 {
		m.subOpt.ObserveTrace(subOpt, traceID)
		m.maxSub.SetMax(subOpt)
	}
}

// observeGuard counts a run's guard intervention (no-op for clean runs).
func (m *serverMetrics) observeGuard(verdict string) {
	if verdict != "" {
		m.guard.With(verdict).Inc()
	}
}

// statusWriter captures the response status for the request counter.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// instrument wraps a handler with per-route metrics for the given route
// pattern (e.g. "POST /sessions/{id}/run"): request count by method/status,
// latency histogram, in-flight gauge.
func (m *serverMetrics) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		m.inflight.Add(1)
		defer m.inflight.Add(-1)
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		m.requests.With(route, r.Method, statusClass(status)).Inc()
		// The trace middleware runs outside the mux, so every instrumented
		// request carries a traceparent; the latency histogram links its
		// buckets to the traces that last landed in them.
		tp, _ := trace.FromContext(r.Context())
		m.latency.With(route).ObserveTrace(time.Since(start).Seconds(), tp.TraceID)
	}
}

// statusClass buckets a status code into its Prometheus-friendly class
// ("2xx", "4xx", ...), keeping the label cardinality constant.
func statusClass(code int) string {
	switch {
	case code < 200:
		return "1xx"
	case code < 300:
		return "2xx"
	case code < 400:
		return "3xx"
	case code < 500:
		return "4xx"
	}
	return "5xx"
}

// handleMetrics serves the registry in the Prometheus text format, or —
// when the scraper negotiates Accept: application/openmetrics-text — in the
// OpenMetrics flavor that additionally carries histogram bucket exemplars
// linking to trace IDs.
func (m *serverMetrics) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text") {
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		_ = m.reg.WriteOpenMetrics(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = m.reg.WriteProm(w)
}
