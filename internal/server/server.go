// Package server exposes the robust query processing library over HTTP —
// the "automated assistant" deployment direction the paper sketches in its
// conclusions: a service that owns the expensive offline ESS constructions
// (Sec 7) and answers per-instance processing requests with guarantees,
// traces and robustness metrics.
//
// The API is versioned under /v1. Session construction is asynchronous:
// creation returns 202 Accepted immediately while the parallel ESS build
// saturates the configured workers in the background, and the session
// resource reports "building" → "ready" (or "failed") with cell-level
// progress. Run and sweep requests against a session that is not ready are
// rejected with 409 Conflict.
//
//	POST /v1/sessions                  {"query":"4D_Q91","gridRes":8}   → 202 {"id","status":"building","progress":{...}}
//	GET  /v1/sessions/{id}             session status, progress, metadata + guarantees once ready
//	POST /v1/sessions/{id}/run         {"strategy":"spillbound","truth":[0.8,0.008,0.05,0.6]}
//	GET  /v1/sessions/{id}/sweep?strategy=spillbound&max=200
//	GET  /v1/sessions/{id}/runs        durable run resources (servers started with a data directory)
//	GET  /v1/sessions/{id}/runs/{rid}  one durable run, read from its last snapshot: status, checkpoint and result summary
//	GET  /v1/strategies                strategy listing (name, kind, guarantee, params)
//	GET  /v1/queries                   benchmark query list
//	GET  /v1/healthz
//
// Run, sweep and atlas requests name their strategy by its exact name (see
// GET /v1/strategies) in the "strategy" field or parameter
// ("strategies" for the atlas). A missing or unknown name is rejected with
// the envelope code "unknown_strategy".
//
// A server configured with Config.DataDir is durable: sessions persist their
// ESS and run checkpoints under per-session directories, run requests may
// set {"durable":true} to checkpoint discovery state at every contour
// boundary, and a restarted server (Recover) rehydrates ready sessions
// without rebuilding and resumes interrupted runs — resumed results report
// "resumed": true. Overload responses (429, 503, 504) carry a Retry-After
// header.
//
// Every error response uses the uniform envelope
//
//	{"error":{"code":"not_found","message":"no session \"s9\""}}
//
// with stable machine-readable codes: bad_request, not_found,
// unknown_strategy, session_building, session_failed, too_many_sessions,
// overloaded, timeout, canceled, internal. Adaptive overload control (AIMD run/build limiters,
// per-session bulkheads, a session-build circuit breaker) sheds excess work
// with 429/503 "overloaded" responses instead of queueing it.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	repro "repro"
	"repro/internal/guard"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Config tunes the server's operational guards. The zero value disables all
// of them (useful in tests that exercise unbounded behaviour).
type Config struct {
	// RequestTimeout is the per-request deadline attached to every request
	// context; run/sweep handlers pass it into the library, so an expired
	// budget aborts the discovery mid-contour. Session builds are NOT
	// bounded by it — they run asynchronously on a background context.
	// 0 disables.
	RequestTimeout time.Duration
	// SessionTTL evicts sessions idle for longer than this; the eviction
	// sweep runs every SessionTTL/4. Sessions still building are never
	// evicted. 0 disables eviction (the map then grows without bound, as
	// before).
	SessionTTL time.Duration
	// MaxSessions rejects new session creation past this registry size
	// (0 = unlimited), bounding the memory a burst of builds can pin.
	MaxSessions int
	// BuildWorkers bounds each session build's parallelism (0 = GOMAXPROCS,
	// 1 = serial). The built space is identical regardless.
	BuildWorkers int
	// DataDir, when non-empty, makes the server durable: each session gets
	// a subdirectory holding its creation metadata, its persisted ESS and
	// its checkpointed run states. A restarted server pointed at the same
	// directory (Recover) rehydrates ready sessions without rebuilding the
	// ESS and resumes interrupted durable runs from their last checkpoint.
	DataDir string
	// MaxConcurrentRuns bounds concurrently executing run/sweep requests
	// with an AIMD limiter: this is the ceiling, successful completions grow
	// the working limit additively and failures halve it, so sustained
	// overload converges on what the process actually keeps up with. Excess
	// requests are shed with 429 + Retry-After. 0 disables.
	MaxConcurrentRuns int
	// MaxConcurrentBuilds bounds concurrently accepted session builds the
	// same way (recovery rebuilds are exempt — they were admitted before the
	// crash). 0 disables.
	MaxConcurrentBuilds int
	// SessionMaxRuns caps concurrent run/sweep requests per session (a
	// bulkhead), so a burst against one session cannot monopolize the shared
	// run limiter. 0 disables.
	SessionMaxRuns int
	// BreakerThreshold is how many consecutive session-build failures open
	// the build circuit breaker: creation is then rejected immediately with
	// 503 until BreakerCooldown passes and a probe build succeeds.
	// 0 disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long the open circuit rejects before admitting
	// a half-open probe.
	BreakerCooldown time.Duration
	// TraceSample is the probabilistic head-sampling rate for trace
	// retention: the fraction of traces whose span trees are kept in the
	// bounded in-memory store behind GET /v1/runs/{id}/trace. The decision
	// is deterministic per trace ID. 0 keeps everything (the zero Config
	// stays fully observable); negative keeps nothing. Traceparent
	// propagation and RunResult trace IDs are unaffected by sampling.
	TraceSample float64
	// Brownout enables the staged brownout controller (see brownout.go and
	// internal/guard.Brownout): a periodic loop samples the node's pressure
	// score and walks the degradation ladder with hysteresis. Off by
	// default — single-node servers keep the existing binary shed behavior
	// and stay at stage 0 permanently (rqpd only enables it in fleet mode).
	Brownout bool
	// BrownoutInterval is the pressure sampling cadence (default 1s).
	BrownoutInterval time.Duration
	// BrownoutConfig tunes the brownout's hysteresis; the zero value takes
	// guard's default.
	BrownoutConfig guard.BrownoutConfig
}

// DefaultConfig returns the production guard rails: 30s request budget,
// 30min idle session TTL, at most 256 live sessions, builds on every core,
// adaptive run/build concurrency limits with per-session bulkheads, and a
// build circuit breaker.
func DefaultConfig() Config {
	return Config{
		RequestTimeout:      30 * time.Second,
		SessionTTL:          30 * time.Minute,
		MaxSessions:         256,
		MaxConcurrentRuns:   64,
		MaxConcurrentBuilds: 4,
		SessionMaxRuns:      32,
		BreakerThreshold:    3,
		BreakerCooldown:     30 * time.Second,
	}
}

// Session lifecycle states reported by the API.
const (
	statusBuilding = "building"
	statusReady    = "ready"
	statusFailed   = "failed"
)

// buildSession constructs the library session for an accepted create
// request. A package variable so tests can substitute a gated build and
// observe the intermediate "building" state deterministically.
var buildSession = repro.NewBenchmarkSessionContext

// Server is the HTTP handler set with its session registry.
type Server struct {
	cfg     Config
	metrics *serverMetrics

	// Overload control (guard package); all nil-safe, so a zero Config
	// leaves every admission path unconditional.
	runLimiter   *guard.AIMD     // run/sweep requests, adaptive
	buildLimiter *guard.AIMD     // accepted session builds, adaptive
	breaker      *guard.Breaker  // session-build circuit breaker
	brownout     *guard.Brownout // staged degradation (nil = stage 0 forever)

	// Shed-rate bookkeeping feeding the gossiped vitals: every overload
	// rejection counts into shedTotal, and shedMu guards the windowed
	// requests/second derivation (see shedRate).
	shedTotal  atomic.Int64
	shedMu     sync.Mutex
	shedLast   int64
	shedLastAt time.Time
	shedRateV  float64

	// Fleet hooks, set by the fleet layer before Start* (hookMu guards the
	// fields, not the calls).
	hookMu        sync.Mutex
	fleetPressure func() float64     // fleet-wide pressure aggregate
	onStage       func(from, to int) // brownout stage-transition observer

	// traces is the bounded store of sampled span trees (runs and session
	// builds), keyed by trace ID.
	traces *traceStore

	mu       sync.Mutex
	sessions map[string]*session
	nextID   int
	evictQ   chan struct{} // closed to stop the eviction loop
	evictWG  sync.WaitGroup
	buildWG  sync.WaitGroup

	brownoutQ  chan struct{} // closed to stop the brownout loop
	brownoutWG sync.WaitGroup
}

type session struct {
	id      string
	spec    workload.Spec
	dataDir string // per-session durable directory ("" = not durable)

	// ctx scopes the build and the run resumes that follow it; cancel
	// aborts them.
	ctx    context.Context
	cancel context.CancelFunc

	// bulkhead caps this session's concurrent run/sweep requests
	// (nil = uncapped).
	bulkhead *guard.Bulkhead

	// Guarded by Server.mu.
	status   string
	sess     *repro.Session // nil until status == ready
	buildErr error          // set when status == failed
	lastUsed time.Time
	runSeq   int // durable run ID allocator
	// failed maps a durable run whose resume failed to its error: such a
	// run has no terminal snapshot to say so.
	failed map[string]string

	// Build progress, updated lock-free from build workers.
	cellsDone  atomic.Int64
	cellsTotal atomic.Int64
}

// Durable run lifecycle states reported by the run resources.
const (
	runCompleted   = "completed"
	runInterrupted = "interrupted"
	runFailed      = "failed"
)

// New returns an empty server with no operational guards (zero Config).
func New() *Server {
	return NewWithConfig(Config{})
}

// NewWithConfig returns an empty server with the given guard configuration.
func NewWithConfig(cfg Config) *Server {
	s := &Server{cfg: cfg, sessions: make(map[string]*session), traces: newTraceStore(traceStoreCap)}
	if cfg.MaxConcurrentRuns > 0 {
		s.runLimiter = guard.NewAIMD(cfg.MaxConcurrentRuns, 1, cfg.MaxConcurrentRuns)
	}
	if cfg.MaxConcurrentBuilds > 0 {
		s.buildLimiter = guard.NewAIMD(cfg.MaxConcurrentBuilds, 1, cfg.MaxConcurrentBuilds)
	}
	if cfg.BreakerThreshold > 0 {
		s.breaker = guard.NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown)
	}
	if cfg.Brownout {
		s.brownout = guard.NewBrownout(cfg.BrownoutConfig)
	}
	s.metrics = newServerMetrics(s)
	return s
}

// FleetSessionHeader pins the session ID a fleet front door hashed the
// placement from: handleCreateSession registers the session under this ID
// instead of allocating a sequential one, so every node in a shared-data-dir
// fleet derives the same owner from the same ID. Internal — the fleet proxy
// strips/sets it; clients never send it.
const FleetSessionHeader = "X-Rqp-Fleet-Session"

// validSessionID vets a pinned session ID: it becomes a directory name
// under the shared data dir and a path segment in /v1 URLs, so it must be
// short, lowercase-alphanumeric (plus - and _), and free of path tricks.
func validSessionID(id string) error {
	if id == "" || len(id) > 64 {
		return fmt.Errorf("pinned session id must be 1-64 characters")
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '-' || c == '_' {
			continue
		}
		return fmt.Errorf("pinned session id %q: only [a-z0-9_-] allowed", id)
	}
	return nil
}

// HasSession reports whether the session ID is registered in this process,
// in any status (building, ready, failed). The fleet router uses it to
// decide between serving locally and kicking off an adoption of an orphaned
// on-disk session.
func (s *Server) HasSession(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.sessions[id]
	return ok
}

// RecordTrace stores a span tree in the server's bounded trace store, making
// it retrievable via GET /v1/runs/{traceId}/trace. The fleet layer uses it
// to publish its membership-timeline trace next to run traces. The fleet
// timeline is exempt from sampling and the brownout drop: it is one bounded
// singleton tree, not per-request volume, and it is exactly the trace that
// explains a brownout episode after the fact.
func (s *Server) RecordTrace(t *trace.Tree) {
	if t != nil && (t.Kind == trace.KindFleet || s.keepTrace(t.TraceID)) {
		s.traces.put(t)
		s.metrics.traceSpans.Add(float64(t.Spans))
	}
}

// Metrics exposes the server's telemetry registry, so embedders (cmd/rqpd)
// can register their own process-level instruments alongside.
func (s *Server) Metrics() *telemetry.Registry { return s.metrics.reg }

// Handler returns the routed http.Handler wrapped with the resilience
// middleware: panic recovery (structured JSON 500), per-request timeout,
// and request body limits. Every route is mounted under /v1 and
// instrumented (request count/latency/status by route pattern).
func (s *Server) Handler() http.Handler {
	m := s.metrics
	mux := http.NewServeMux()
	route := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, m.instrument(pattern, h))
	}
	route("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	route("GET /v1/queries", s.handleQueries)
	route("POST /v1/sessions", s.handleCreateSession)
	route("GET /v1/sessions/{id}", s.handleGetSession)
	route("POST /v1/sessions/{id}/run", s.handleRun)
	route("GET /v1/sessions/{id}/sweep", s.handleSweep)
	route("GET /v1/sessions/{id}/runs", s.handleListRuns)
	route("GET /v1/sessions/{id}/runs/{rid}", s.handleGetRun)
	route("GET /v1/strategies", s.handleStrategies)
	route("GET /v1/atlas", s.handleAtlas)
	// Trace resources are keyed by trace ID, not session: a trace may span
	// daemon restarts (crash-resumed runs) and outlive its session.
	route("GET /v1/runs/{id}/trace", s.handleGetTrace)
	route("GET /v1/metrics", m.handleMetrics)
	// The trace middleware sits outermost so every response — including
	// panics recovered below it and overload sheds — carries Traceparent
	// and X-Request-ID headers.
	return s.traceMiddleware(s.recoverMiddleware(timeoutMiddleware(s.cfg.RequestTimeout, limitBodyMiddleware(mux))))
}

// StartEviction launches the background sweep that drops sessions idle for
// longer than the configured TTL. It is a no-op when no TTL is set. Stop
// with Close.
func (s *Server) StartEviction() {
	if s.cfg.SessionTTL <= 0 || s.evictQ != nil {
		return
	}
	s.evictQ = make(chan struct{})
	s.evictWG.Add(1)
	go func() {
		defer s.evictWG.Done()
		t := time.NewTicker(s.cfg.SessionTTL / 4)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.EvictIdle(time.Now())
			case <-s.evictQ:
				return
			}
		}
	}()
}

// EvictIdle drops every ready or failed session idle at the given instant
// for longer than the TTL, returning how many were evicted. Sessions still
// building are exempt — their build is in flight and their lastUsed only
// advances on completion. Exposed for deterministic tests; the background
// sweep calls it with time.Now().
func (s *Server) EvictIdle(now time.Time) int {
	if s.cfg.SessionTTL <= 0 {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for id, e := range s.sessions {
		if e.status == statusBuilding {
			continue
		}
		if now.Sub(e.lastUsed) > s.cfg.SessionTTL {
			delete(s.sessions, id)
			n++
		}
	}
	return n
}

// SessionCount reports the live session registry size.
func (s *Server) SessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// buildingCount reports how many sessions are still building.
func (s *Server) buildingCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, e := range s.sessions {
		if e.status == statusBuilding {
			n++
		}
	}
	return n
}

// readyCount reports how many sessions are built and servable.
func (s *Server) readyCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, e := range s.sessions {
		if e.status == statusReady {
			n++
		}
	}
	return n
}

// Close stops the eviction sweep and brownout loop (if running), cancels
// every in-flight session build, and waits for all of them to wind down.
func (s *Server) Close() {
	if s.evictQ != nil {
		close(s.evictQ)
		s.evictWG.Wait()
		s.evictQ = nil
	}
	if s.brownoutQ != nil {
		close(s.brownoutQ)
		s.brownoutWG.Wait()
		s.brownoutQ = nil
	}
	s.mu.Lock()
	for _, e := range s.sessions {
		if e.cancel != nil {
			e.cancel()
		}
	}
	s.mu.Unlock()
	s.buildWG.Wait()
}

// queryInfo is one /v1/queries entry.
type queryInfo struct {
	Name    string `json:"name"`
	D       int    `json:"d"`
	Catalog string `json:"catalog"`
	GridRes int    `json:"gridRes"`
}

func (s *Server) handleQueries(w http.ResponseWriter, r *http.Request) {
	var out []queryInfo
	for _, sp := range workload.All() {
		out = append(out, queryInfo{Name: sp.Name, D: sp.D, Catalog: sp.Catalog, GridRes: sp.GridRes})
	}
	writeJSON(w, http.StatusOK, out)
}

// createRequest is the POST /v1/sessions payload.
type createRequest struct {
	// Query names a benchmark query (see /v1/queries).
	Query string `json:"query"`
	// GridRes overrides the recommended grid resolution (0 = default).
	GridRes int `json:"gridRes,omitempty"`
	// Profile selects the cost profile: "postgres" (default) or
	// "commercial".
	Profile string `json:"profile,omitempty"`
}

// buildProgress reports how far an asynchronous session build has come.
type buildProgress struct {
	CellsDone  int `json:"cellsDone"`
	CellsTotal int `json:"cellsTotal"`
}

// sessionInfo describes a session resource in any lifecycle state; the
// guarantee block is present only once the build is ready.
type sessionInfo struct {
	ID          string         `json:"id"`
	Query       string         `json:"query"`
	D           int            `json:"d"`
	Status      string         `json:"status"`
	Progress    *buildProgress `json:"progress,omitempty"`
	BuildError  string         `json:"buildError,omitempty"`
	POSPSize    int            `json:"pospSize,omitempty"`
	Contours    int            `json:"contours,omitempty"`
	PBGuarantee float64        `json:"pbGuarantee,omitempty"`
	SBGuarantee float64        `json:"sbGuarantee,omitempty"`
	ABLow       float64        `json:"abGuaranteeLow,omitempty"`
	ABHigh      float64        `json:"abGuaranteeHigh,omitempty"`
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	// Brownout stage 3 sheds builds — the most expensive admission — while
	// runs against already-built sessions keep serving.
	if s.Stage() >= 3 {
		s.shedBrownout(w, "build")
		return
	}
	var req createRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, codeBadRequest, fmt.Errorf("bad payload: %w", err))
		return
	}
	// A fleet front door pins the session ID it hashed the placement from;
	// without the header the server allocates its own sequential ID.
	meta := sessionMeta{ID: r.Header.Get(FleetSessionHeader), createRequest: req}
	if meta.ID != "" {
		if err := validSessionID(meta.ID); err != nil {
			s.writeError(w, http.StatusBadRequest, codeBadRequest, err)
			return
		}
	}
	e, opts, err := s.newEntry(meta)
	if err != nil {
		if errors.Is(err, errUnknownQuery) {
			s.writeError(w, http.StatusNotFound, codeNotFound, err)
		} else {
			s.writeError(w, http.StatusBadRequest, codeBadRequest, err)
		}
		return
	}
	if s.cfg.MaxSessions > 0 && s.SessionCount() >= s.cfg.MaxSessions {
		// Retry-After tells well-behaved clients when capacity plausibly
		// frees up: the next eviction sweep (see README, API errors),
		// jittered per request so a synchronized burst fans back out.
		s.setRetryAfter(w, s.retryAfterSeconds())
		s.writeError(w, http.StatusTooManyRequests, codeTooManySessions, fmt.Errorf("session limit %d reached; retry after idle sessions expire", s.cfg.MaxSessions))
		return
	}
	// Overload control for the expensive build path: the adaptive build
	// limiter first (a shed there must not consume a breaker probe), then
	// the circuit breaker around the build dependency.
	if !s.buildLimiter.TryAcquire() {
		s.shed(w, "build", "limiter", fmt.Errorf("concurrent session-build limit reached; retry shortly"))
		return
	}
	if !s.breaker.Allow() {
		s.buildLimiter.Cancel()
		// Advertise the REMAINING cooldown, not the full configured one: a
		// circuit opened 25s into a 30s cooldown admits its probe in 5s, and
		// telling clients to stay away for 30 wastes most of a recovery
		// window. RetryAfter is zero only in the Allow/RetryAfter race where
		// the cooldown expired between the two calls — the floor keeps the
		// header honest (retry immediately-ish). Jittered per request so the
		// herd waiting out the cooldown doesn't return as one.
		s.setRetryAfter(w, guard.RetryAfterSeconds(s.breaker.RetryAfter()))
		s.countShed("build", "breaker")
		s.writeError(w, http.StatusServiceUnavailable, codeOverloaded,
			fmt.Errorf("session builds are failing; circuit open, retry after cooldown"))
		return
	}
	s.metrics.setInflight("build", s.buildLimiter.Inflight())

	// undo rolls back an admitted create that never started its build: its
	// registry entry, its limiter slot and its breaker admission. A 409 (the
	// ID is taken) never exercised the build dependency, so the admission is
	// released without an outcome; anything else records a failure.
	undo := func(status int, err error) {
		s.mu.Lock()
		if s.sessions[e.id] == e {
			delete(s.sessions, e.id)
			e.cancel()
		}
		s.mu.Unlock()
		s.buildLimiter.Cancel()
		s.metrics.setInflight("build", s.buildLimiter.Inflight())
		code := codeBadRequest
		if status == http.StatusConflict {
			s.breaker.Forget()
		} else {
			s.breaker.Record(false)
			code = codeInternal
		}
		s.writeError(w, status, code, err)
	}
	if err := s.register(e); err != nil {
		undo(http.StatusConflict, err)
		return
	}
	if e.dataDir != "" {
		// Durable session: persist the creation metadata before the build
		// starts, so a crashed process can recover the session (Recover)
		// even if it dies mid-build.
		if meta.ID != "" {
			// register's duplicate check only covers THIS process. With a
			// shared fleet data dir, two nodes whose ring views diverged can
			// both accept a create (or a create can race an adoption on
			// another node) for the same pinned ID — so the session
			// directory itself is the cross-node claim: exclusive Mkdir, 409
			// on EEXIST.
			if err := claimSessionDir(e.dataDir); os.IsExist(err) {
				undo(http.StatusConflict, fmt.Errorf("session %q already exists in the shared data directory", e.id))
				return
			} else if err != nil {
				undo(http.StatusInternalServerError, fmt.Errorf("claim session directory: %v", err))
				return
			}
		}
		meta.ID = e.id
		if err := saveSessionMeta(e.dataDir, meta); err != nil {
			undo(http.StatusInternalServerError, fmt.Errorf("persist session metadata: %v", err))
			return
		}
	}
	// The build belongs to the create request's trace.
	tp, _ := trace.FromContext(r.Context())
	s.startBuild(e, opts, tp.TraceID, true, nil)
	writeJSON(w, http.StatusAccepted, s.info(e))
}

// errUnknownQuery marks a creation record that names no benchmark query.
var errUnknownQuery = errors.New("unknown query")

// newEntry resolves a session's creation record into its registry entry,
// building, with its progress total and the BuildProgress hook that feeds
// it, and the options its build runs with. It holds the only checks of the
// record's parameters: create, restart recovery and fleet adoption all
// resolve through it.
func (s *Server) newEntry(meta sessionMeta) (*session, repro.Options, error) {
	opts := repro.BenchmarkOptions()
	sp, ok := workload.ByName(meta.Query)
	if !ok {
		return nil, opts, fmt.Errorf("%w %q", errUnknownQuery, meta.Query)
	}
	opts.Workers = s.cfg.BuildWorkers
	switch meta.Profile {
	case "", "postgres":
	case "commercial":
		opts.Params = repro.CommercialProfile()
	default:
		return nil, opts, fmt.Errorf("unknown profile %q", meta.Profile)
	}
	res := sp.GridRes
	if meta.GridRes != 0 {
		if meta.GridRes < 2 || meta.GridRes > 64 {
			return nil, opts, fmt.Errorf("gridRes %d outside [2,64]", meta.GridRes)
		}
		opts.GridRes, res = meta.GridRes, meta.GridRes
	}
	e := &session{id: meta.ID, spec: sp, status: statusBuilding, lastUsed: time.Now(),
		bulkhead: guard.NewBulkhead(s.cfg.SessionMaxRuns), failed: map[string]string{}}
	total := 1
	for i := 0; i < sp.D; i++ {
		total *= res
	}
	e.cellsTotal.Store(int64(total))
	opts.BuildProgress = func(done, total int) {
		prev := e.cellsDone.Swap(int64(done))
		e.cellsTotal.Store(int64(total))
		// Counter.Add ignores the negative deltas that out-of-order progress
		// callbacks from concurrent build workers can produce.
		s.metrics.buildCells.Add(float64(int64(done) - prev))
	}
	return e, opts, nil
}

// register adds an entry to the registry under the next "s<N>" ID when its
// ID is empty, or else under its given ID, which must be free. A given
// "s<N>" advances the allocator past N, so a later allocation cannot take
// it again. Registration gives the entry the context its build runs under
// (Close cancels it) and, on a durable server, its data directory.
func (s *Server) register(e *session) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e.id == "" {
		s.nextID++
		e.id = fmt.Sprintf("s%d", s.nextID)
	} else if _, exists := s.sessions[e.id]; exists {
		return fmt.Errorf("session %q already exists", e.id)
	} else if rest, ok := strings.CutPrefix(e.id, "s"); ok {
		if n, err := strconv.Atoi(rest); err == nil && n > s.nextID {
			s.nextID = n
		}
	}
	if s.cfg.DataDir != "" {
		e.dataDir = filepath.Join(s.cfg.DataDir, e.id)
	}
	e.ctx, e.cancel = context.WithCancel(context.Background())
	s.sessions[e.id] = e
	return nil
}

// startBuild runs a registered entry's build in the background under the
// entry's context, observes its duration and publishes the entry ready or
// failed. With a trace ID, the build's events are retained under it as a
// span tree. An admitted build (a create; recovery is exempt) returns its
// limiter slot and feeds the breaker before the entry is published. then,
// when non-nil, continues a successful build under the same context.
func (s *Server) startBuild(e *session, opts repro.Options, traceID string, admitted bool, then func(context.Context, *repro.Session)) {
	opts.DataDir = e.dataDir
	s.buildWG.Add(1)
	go func() {
		defer s.buildWG.Done()
		defer e.cancel()
		ctx := e.ctx
		var rec *telemetry.Recorder
		if traceID != "" {
			rec = telemetry.NewRecorder()
			ctx = telemetry.With(ctx, rec)
		}
		start := time.Now()
		sess, err := buildSession(ctx, e.spec, opts)
		s.metrics.buildDuration.ObserveTrace(time.Since(start).Seconds(), traceID)
		if err == nil && rec != nil {
			s.recordTrace(traceID, trace.KindBuild, rec.Take())
		}
		if admitted {
			s.buildLimiter.Release(err == nil)
			s.metrics.setInflight("build", s.buildLimiter.Inflight())
			if err == nil || !errors.Is(err, context.Canceled) {
				// A build aborted by server shutdown says nothing about the
				// dependency's health; everything else feeds the breaker.
				s.breaker.Record(err == nil)
			}
		}
		s.mu.Lock()
		e.lastUsed = time.Now()
		if err != nil {
			e.status, e.buildErr = statusFailed, err
			s.metrics.builds.With("failed").Inc()
		} else {
			e.status, e.sess = statusReady, sess
			s.metrics.builds.With("ok").Inc()
		}
		s.mu.Unlock()
		if err == nil && then != nil {
			then(e.ctx, sess)
		}
	}()
}

// shed rejects a request refused by overload control: counts it into
// rqp_shed_total and answers 429 with the envelope's overloaded code
// (writeError supplies the Retry-After header).
func (s *Server) shed(w http.ResponseWriter, class, reason string, err error) {
	s.countShed(class, reason)
	s.writeError(w, http.StatusTooManyRequests, codeOverloaded, err)
}

// admitRun passes a run/sweep request through the shared adaptive limiter and
// the session's bulkhead. On admission the returned release must be called
// exactly once with the request's outcome — overload-shaped failures (5xx)
// shrink the adaptive limit, client errors and successes grow it. On refusal
// the 429 is already written and release is nil.
func (s *Server) admitRun(w http.ResponseWriter, e *session) (release func(ok bool), admitted bool) {
	if !s.runLimiter.TryAcquire() {
		s.shed(w, "run", "limiter", fmt.Errorf("concurrent run limit reached; retry shortly"))
		return nil, false
	}
	if !e.bulkhead.TryAcquire() {
		// Roll the limiter slot back without outcome feedback: the refusal is
		// the session's, not a signal about global capacity.
		s.runLimiter.Cancel()
		s.shed(w, "run", "bulkhead", fmt.Errorf("session %s concurrent-run limit reached; retry shortly", e.id))
		return nil, false
	}
	s.metrics.setInflight("run", s.runLimiter.Inflight())
	return func(ok bool) {
		e.bulkhead.Release()
		s.runLimiter.Release(ok)
		s.metrics.setInflight("run", s.runLimiter.Inflight())
	}, true
}

// info snapshots a session resource for the wire. It takes the registry
// lock; callers must not hold it.
func (s *Server) info(e *session) sessionInfo {
	s.mu.Lock()
	status, sess, buildErr := e.status, e.sess, e.buildErr
	s.mu.Unlock()
	out := sessionInfo{ID: e.id, Query: e.spec.Name, D: e.spec.D, Status: status}
	switch status {
	case statusReady:
		lo, hi := sess.GuaranteeRangeAB()
		out.POSPSize = sess.POSPSize()
		out.Contours = sess.ContourCount()
		out.PBGuarantee = sess.Guarantee(repro.PlanBouquet)
		out.SBGuarantee = sess.Guarantee(repro.SpillBound)
		out.ABLow, out.ABHigh = lo, hi
	case statusFailed:
		out.BuildError = buildErr.Error()
	default:
		out.Progress = &buildProgress{
			CellsDone:  int(e.cellsDone.Load()),
			CellsTotal: int(e.cellsTotal.Load()),
		}
	}
	return out
}

// lookup returns the session with the given ID and marks it used, or
// writes a 404 when there is none.
func (s *Server) lookup(w http.ResponseWriter, id string) (*session, bool) {
	s.mu.Lock()
	e, ok := s.sessions[id]
	if ok {
		e.lastUsed = time.Now()
	}
	s.mu.Unlock()
	if !ok {
		s.writeError(w, http.StatusNotFound, codeNotFound, fmt.Errorf("no session %q", id))
		return nil, false
	}
	return e, true
}

// ready resolves a looked-up session to its built library session, writing
// a 409 Conflict when the build is still in flight or has failed.
func (s *Server) ready(w http.ResponseWriter, e *session) (*repro.Session, bool) {
	s.mu.Lock()
	status, sess, buildErr := e.status, e.sess, e.buildErr
	s.mu.Unlock()
	switch status {
	case statusReady:
		return sess, true
	case statusFailed:
		s.writeError(w, http.StatusConflict, codeSessionFailed,
			fmt.Errorf("session %s build failed: %v", e.id, buildErr))
	default:
		s.writeError(w, http.StatusConflict, codeSessionBuilding,
			fmt.Errorf("session %s is still building (%d/%d cells); retry when status is %q",
				e.id, e.cellsDone.Load(), e.cellsTotal.Load(), statusReady))
	}
	return nil, false
}

func (s *Server) handleGetSession(w http.ResponseWriter, r *http.Request) {
	if e, ok := s.lookup(w, r.PathValue("id")); ok {
		writeJSON(w, http.StatusOK, s.info(e))
	}
}

// runRequest is the POST /v1/sessions/{id}/run payload.
type runRequest struct {
	// Strategy names a registered strategy (see GET /v1/strategies).
	Strategy string `json:"strategy"`
	// Truth is the actual selectivity location (one value per epp).
	Truth []float64 `json:"truth"`
	// Durable checkpoints the run's discovery state at every contour
	// boundary (requires a server started with a data directory); a run
	// interrupted by a process crash is then resumed on recovery instead of
	// being lost. The response carries the run ID.
	Durable bool `json:"durable,omitempty"`
	// RunID names the durable run (optional; the server allocates one when
	// empty). Ignored for non-durable runs.
	RunID string `json:"runId,omitempty"`
	// Scenario names a seeded error-regime scenario ("benign-1",
	// "regret-correlated-2", "adversarial-1", ...) whose fault composition is
	// injected into the run — the server-side hook the traffic-replay harness
	// drives. Empty means a clean run.
	Scenario string `json:"scenario,omitempty"`
	// ScenarioSeed selects the scenario suite the name resolves in
	// (default 1); the same (seed, name) pair denotes the same faults in
	// every process.
	ScenarioSeed int64 `json:"scenarioSeed,omitempty"`
}

// runResponse mirrors repro.RunResult for the wire.
type runResponse struct {
	Algorithm   string  `json:"algorithm"`
	TotalCost   float64 `json:"totalCost"`
	OptimalCost float64 `json:"optimalCost"`
	SubOpt      float64 `json:"subOpt"`
	Guarantee   float64 `json:"guarantee,omitempty"`
	Steps       int     `json:"steps"`
	Trace       string  `json:"trace"`
	// Events is the typed run-event stream the trace is rendered from:
	// contour entries, (spill) executions, half-space prunes, budget spends,
	// retries, degradation, and the terminal summary.
	Events []telemetry.Event `json:"events"`
	// Retries counts the step retry attempts absorbed by the resilience
	// layer during the run.
	Retries int `json:"retries,omitempty"`
	// Degraded reports the run fell back to the Native plan (the guarantee
	// field is then omitted — the MSO bound no longer applies).
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degradedReason,omitempty"`
	// GuardVerdict reports the strongest runtime-guard intervention of the
	// run: "budget_abort", "ess_escape", or empty for a clean run.
	GuardVerdict string `json:"guardVerdict,omitempty"`
	// Scenario echoes the injected error-regime scenario, if any.
	Scenario string `json:"scenario,omitempty"`
	// RunID names the durable run the result belongs to (durable runs only).
	RunID string `json:"runId,omitempty"`
	// Resumed reports the run was rehydrated from a crash checkpoint;
	// TotalCost then spans every process incarnation's checkpointed spend.
	Resumed bool `json:"resumed,omitempty"`
	// TraceID is the run's W3C trace ID (the request's traceparent, or a
	// server-minted one); GET /v1/runs/{traceId}/trace serves the span tree
	// when the trace was sampled.
	TraceID string `json:"traceId,omitempty"`
}

// handleStrategies serves the strategy listing: every strategy's canonical
// name, kind, guarantee formula, resumability and
// tuning-knob documentation.
func (s *Server) handleStrategies(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, repro.Strategies())
}

// resolveStrategy resolves a wire strategy name against the strategies; a
// missing or unknown name writes the uniform envelope with code
// "unknown_strategy".
func (s *Server) resolveStrategy(w http.ResponseWriter, name string) (repro.Algorithm, bool) {
	if _, err := repro.ParseStrategy(name); err != nil {
		s.writeError(w, http.StatusBadRequest, codeUnknownStrategy, err)
		return "", false
	}
	return repro.Algorithm(name), true
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	// Brownout stage 4 is the full shed: runs were the last admitted class.
	if s.Stage() >= 4 {
		s.shedBrownout(w, "run")
		return
	}
	e, ok := s.lookup(w, r.PathValue("id"))
	if !ok {
		return
	}
	sess, ok := s.ready(w, e)
	if !ok {
		return
	}
	var req runRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, codeBadRequest, fmt.Errorf("bad payload: %w", err))
		return
	}
	algo, ok := s.resolveStrategy(w, req.Strategy)
	if !ok {
		return
	}
	var fp *repro.FaultPlan
	if req.Scenario != "" {
		seed := req.ScenarioSeed
		if seed == 0 {
			seed = 1
		}
		sc, ok := repro.ScenarioByName(seed, req.Scenario)
		if !ok {
			s.writeError(w, http.StatusBadRequest, codeBadRequest,
				fmt.Errorf("unknown scenario %q (want <regime>-<n>, e.g. %q)", req.Scenario, "adversarial-1"))
			return
		}
		fp = &sc.Faults
	}
	runID := ""
	if req.Durable {
		if e.dataDir == "" {
			s.writeError(w, http.StatusBadRequest, codeBadRequest,
				fmt.Errorf("durable runs need a server data directory (rqpd -data)"))
			return
		}
		runID = req.RunID
		if runID == "" {
			s.mu.Lock()
			e.runSeq++
			runID = fmt.Sprintf("r%d", e.runSeq)
			s.mu.Unlock()
		}
	}
	release, admitted := s.admitRun(w, e)
	if !admitted {
		return
	}
	ctx := repro.WithFaults(r.Context(), fp)
	var res repro.RunResult
	var err error
	if req.Durable {
		res, err = sess.RunDurable(ctx, algo, repro.Location(req.Truth), runID)
	} else {
		res, err = sess.RunContext(ctx, algo, repro.Location(req.Truth))
	}
	if err != nil {
		s.metrics.runs.With(algo.String(), "error").Inc()
		status, code := runErrorStatus(err)
		// Only overload-shaped outcomes (timeouts, cancellations → 5xx) shrink
		// the adaptive limit; a validation 400 says nothing about capacity.
		release(status < http.StatusInternalServerError)
		s.writeError(w, status, code, err)
		return
	}
	release(true)
	s.accountRun(algo, res)
	resp := buildRunResponse(sess, algo, res)
	resp.Scenario = req.Scenario
	s.writeRunReply(w, resp)
}

// replyBufs recycles run reply buffers: a PlanBouquet reply is ~100 KB.
var replyBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeRunReply writes a 200 run reply in one Write from one presized
// buffer. The bytes are those json.NewEncoder(w).Encode(resp) writes. A
// reply holding a NaN or infinite float, which JSON cannot carry, is sent
// as a 500 error envelope instead.
func (s *Server) writeRunReply(w http.ResponseWriter, resp *runResponse) {
	buf := replyBufs.Get().(*[]byte)
	defer replyBufs.Put(buf)
	if n := resp.sizeHint(); cap(*buf) < n {
		*buf = make([]byte, 0, n)
	}
	b, err := resp.appendJSON((*buf)[:0])
	*buf = b[:0]
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, codeInternal, fmt.Errorf("encode run reply: %w", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
}

// sizeHint bounds the reply's encoded size from above for typical streams:
// the trace with room for its escapes, and 128 bytes an event (they
// average about 110).
func (r *runResponse) sizeHint() int {
	return 512 + len(r.Trace) + len(r.Trace)/8 + 128*len(r.Events)
}

// appendJSON appends the reply as json.Encoder.Encode writes it, the
// trailing newline and the fields' omitempty rules included, through the
// telemetry package's encoding/json-exact helpers. It fails only on a NaN
// or infinite float.
func (r *runResponse) appendJSON(b []byte) ([]byte, error) {
	b = append(b, `{"algorithm":`...)
	b = telemetry.AppendJSONString(b, r.Algorithm)
	b, err := telemetry.AppendJSONFloat(append(b, `,"totalCost":`...), r.TotalCost)
	if err == nil {
		b, err = telemetry.AppendJSONFloat(append(b, `,"optimalCost":`...), r.OptimalCost)
	}
	if err == nil {
		b, err = telemetry.AppendJSONFloat(append(b, `,"subOpt":`...), r.SubOpt)
	}
	if err == nil && r.Guarantee != 0 {
		b, err = telemetry.AppendJSONFloat(append(b, `,"guarantee":`...), r.Guarantee)
	}
	if err != nil {
		return b, err
	}
	b = append(b, `,"steps":`...)
	b = strconv.AppendInt(b, int64(r.Steps), 10)
	b = append(b, `,"trace":`...)
	b = telemetry.AppendJSONString(b, r.Trace)
	b = append(b, `,"events":`...)
	if r.Events == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		var enc telemetry.EventEncoder // one float memo across the reply's events
		for i := range r.Events {
			if i > 0 {
				b = append(b, ',')
			}
			if b, err = enc.Append(b, &r.Events[i]); err != nil {
				return b, err
			}
		}
		b = append(b, ']')
	}
	if r.Retries != 0 {
		b = strconv.AppendInt(append(b, `,"retries":`...), int64(r.Retries), 10)
	}
	if r.Degraded {
		b = append(b, `,"degraded":true`...)
	}
	b = appendOmitString(b, `,"degradedReason":`, r.DegradedReason)
	b = appendOmitString(b, `,"guardVerdict":`, r.GuardVerdict)
	b = appendOmitString(b, `,"scenario":`, r.Scenario)
	b = appendOmitString(b, `,"runId":`, r.RunID)
	if r.Resumed {
		b = append(b, `,"resumed":true`...)
	}
	b = appendOmitString(b, `,"traceId":`, r.TraceID)
	return append(b, "}\n"...), nil
}

// appendOmitString appends an omitempty string field.
func appendOmitString(b []byte, key, v string) []byte {
	if v == "" {
		return b
	}
	return telemetry.AppendJSONString(append(b, key...), v)
}

// accountRun does a completed run's bookkeeping, for served and resumed
// runs alike: the run and guard metrics, the count of its checkpoint saves,
// and the retention of its trace. The trace goes last, so a reader that
// sees the run's events on its run resource sees its metrics too.
func (s *Server) accountRun(algo repro.Algorithm, res repro.RunResult) {
	s.metrics.observeRun(algo.String(), res.Degraded, res.Retries, res.SubOpt, res.TraceID)
	s.metrics.observeGuard(res.GuardVerdict)
	for _, ev := range res.Events {
		if ev.Kind == telemetry.CheckpointSave {
			s.metrics.checkpoints.Inc()
		}
	}
	s.recordTrace(res.TraceID, trace.KindRun, res.Events)
}

// buildRunResponse converts a library run result to the wire form.
func buildRunResponse(sess *repro.Session, algo repro.Algorithm, res repro.RunResult) *runResponse {
	resp := &runResponse{
		Algorithm: algo.String(), TotalCost: res.TotalCost,
		OptimalCost: res.OptimalCost, SubOpt: res.SubOpt,
		Steps: len(res.Steps), Trace: res.Trace, Events: res.Events,
		Retries:  res.Retries,
		Degraded: res.Degraded, DegradedReason: res.DegradedReason,
		GuardVerdict: res.GuardVerdict,
		RunID:        res.RunID, Resumed: res.Resumed,
		TraceID: res.TraceID,
	}
	if g := sess.Guarantee(algo); g < 1e300 && !res.Degraded {
		resp.Guarantee = g
	}
	return resp
}

// sweepResponse mirrors repro.SweepSummary.
type sweepResponse struct {
	Algorithm string    `json:"algorithm"`
	MSO       float64   `json:"mso"`
	ASO       float64   `json:"aso"`
	Locations int       `json:"locations"`
	Worst     []float64 `json:"worstLocation"`
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	// Brownout stage 2 sheds the expensive read surface: a sweep is
	// Locations-many runs in one request.
	if s.Stage() >= 2 {
		s.shedBrownout(w, "run")
		return
	}
	e, ok := s.lookup(w, r.PathValue("id"))
	if !ok {
		return
	}
	sess, ok := s.ready(w, e)
	if !ok {
		return
	}
	algo, ok := s.resolveStrategy(w, r.URL.Query().Get("strategy"))
	if !ok {
		return
	}
	max := 0
	var err error
	if v := r.URL.Query().Get("max"); v != "" {
		max, err = strconv.Atoi(v)
		if err != nil || max < 0 {
			s.writeError(w, http.StatusBadRequest, codeBadRequest, fmt.Errorf("bad max %q", v))
			return
		}
	}
	release, admitted := s.admitRun(w, e)
	if !admitted {
		return
	}
	sum, err := sess.SweepContext(r.Context(), algo, max)
	if err != nil {
		s.metrics.runs.With(algo.String(), "error").Inc()
		status, code := runErrorStatus(err)
		if status == http.StatusBadRequest {
			status, code = http.StatusInternalServerError, codeInternal
		}
		release(status < http.StatusInternalServerError)
		s.writeError(w, status, code, err)
		return
	}
	release(true)
	// A sweep is Locations individual runs; its MSO and ASO are observed
	// sub-optimalities (the worst and the average), so both feed the
	// distribution the /v1/metrics histogram exposes.
	s.metrics.runs.With(algo.String(), "sweep").Add(float64(sum.Locations))
	s.metrics.subOpt.Observe(sum.MSO)
	s.metrics.subOpt.Observe(sum.ASO)
	s.metrics.maxSub.SetMax(sum.MSO)
	writeJSON(w, http.StatusOK, sweepResponse{
		Algorithm: algo.String(), MSO: sum.MSO, ASO: sum.ASO,
		Locations: sum.Locations, Worst: sum.WorstLocation,
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
