// Package fleet turns N rqpd processes into one fault-tolerant session
// fabric. Distribution is a backend, not a behavior change (the Cascading
// model): the library and the single-node server are byte-identical, and
// this package only decides WHERE a session lives and WHO picks up its
// durable runs when that place dies.
//
//   - Membership: a static -peers list probed by periodic heartbeats with
//     mark-down/mark-up hysteresis and probe backoff (membership.go).
//   - Placement: consistent-hash routing of session IDs over the live peer
//     set (ring.go); any node answers any request, transparently proxying
//     to the owner with deadline/traceparent/X-Request-ID propagation, a
//     per-class retry budget and a single hedge for idempotent reads
//     (proxy.go).
//   - Failover: when a heartbeat declares an owner dead, the next hash
//     owner adopts the session from the shared data dir and resumes its
//     interrupted durable runs; an ownership epoch stamped into every
//     runstate snapshot fences out the dead owner's late checkpoints
//     (failover.go, internal/runstate/epoch.go).
package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Config wires one node into the fabric. Zero durations and counts take the
// defaults noted per field.
type Config struct {
	// Self is the address peers reach this node at (host:port); it must
	// appear in Peers.
	Self string
	// Peers is the full static fleet, self included.
	Peers []string
	// DataDir is the SHARED durable data directory — every node must see
	// the same filesystem, it is what makes any-node failover possible.
	DataDir string
	// HeartbeatInterval is the probe cadence (default 1s).
	HeartbeatInterval time.Duration
	// ProbeTimeout is the per-probe HTTP budget (default interval/2).
	ProbeTimeout time.Duration
	// MarkDown / MarkUp are the hysteresis thresholds: consecutive probe
	// failures to take a peer down (default 3) and consecutive successes
	// to bring it back (default 2).
	MarkDown int
	MarkUp   int
	// MaxBackoff caps the probe backoff while a peer is down (default
	// 8×interval).
	MaxBackoff time.Duration
	// ProxyTimeout bounds one proxied request, hedges included (default
	// 30s).
	ProxyTimeout time.Duration
	// HedgeDelay is how long an idempotent read waits on the owner before
	// launching its single hedge request (default 150ms; negative disables
	// hedging).
	HedgeDelay time.Duration
	// Replicas is the virtual-node count per ring member (default 64).
	Replicas int
	// ShedPressure is the owner-pressure threshold at or above which the
	// proxy rejects at the edge instead of forwarding — the cheapest
	// rejection point, sparing the saturated owner the request entirely
	// (default 0.9; ≥ 1 never edge-sheds on pressure alone).
	ShedPressure float64
	// HedgePressure is the owner-pressure threshold at or above which
	// hedging is suppressed: a hedge against a struggling owner is pure
	// load amplification (default 0.6).
	HedgePressure float64
	// RetryBudget caps the wire attempts (primary + retry + hedge) one
	// request may spend across the fleet, and is threaded through the
	// X-Rqp-Retry-Budget header so client-side retry storms cannot fan out
	// unboundedly (default 3). An incoming header may lower the cap for a
	// given request, never raise it.
	RetryBudget int
}

// withDefaults returns the config with unset knobs defaulted.
func (c Config) withDefaults() Config {
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = c.HeartbeatInterval / 2
	}
	if c.MarkDown < 1 {
		c.MarkDown = 3
	}
	if c.MarkUp < 1 {
		c.MarkUp = 2
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 8 * c.HeartbeatInterval
	}
	if c.ProxyTimeout <= 0 {
		c.ProxyTimeout = 30 * time.Second
	}
	if c.HedgeDelay == 0 {
		c.HedgeDelay = 150 * time.Millisecond
	}
	if c.Replicas < 1 {
		c.Replicas = defaultReplicas
	}
	if c.ShedPressure <= 0 {
		c.ShedPressure = 0.9
	}
	if c.HedgePressure <= 0 {
		c.HedgePressure = 0.6
	}
	if c.RetryBudget < 1 {
		c.RetryBudget = 3
	}
	return c
}

// Node is one fleet member: the local server plus membership, routing and
// failover. Construct with New, start probing with Start, mount Handler.
type Node struct {
	cfg        Config
	srv        *server.Server
	membership *Membership
	inner      http.Handler
	client     *http.Client

	// plan is the node-local chaos plan; its heartbeat-drop toggle makes
	// this node look partitioned without stopping it (POST /v1/fleet/faults).
	plan *faults.Plan

	// The membership event stream: every down/up transition and failover
	// adoption records here, and the derived fleet trace (trace.FromFleet)
	// is re-published into the server's trace store after each event — a
	// flamegraph-able membership timeline under fleetTraceID.
	rec          *telemetry.Recorder
	fleetTraceID string

	metrics fleetMetrics

	ringMu sync.Mutex
	ring   *Ring

	adoptMu  sync.Mutex
	adopting map[string]bool

	stop      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// fleetMetrics are the fabric's instruments, registered on the SERVER's
// registry so one /v1/metrics scrape covers both layers.
type fleetMetrics struct {
	peersLive  *telemetry.Gauge
	proxy      *telemetry.CounterVec
	proxySheds *telemetry.CounterVec
	failovers  *telemetry.Counter
	hedges     *telemetry.Counter
}

// New wires a node over its server. The server must share cfg.DataDir, and
// cfg.Self must appear in cfg.Peers.
func New(cfg Config, srv *server.Server) (*Node, error) {
	cfg = cfg.withDefaults()
	if cfg.Self == "" {
		return nil, fmt.Errorf("fleet: Self address required")
	}
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("fleet: shared DataDir required (any-node failover resumes from it)")
	}
	found := false
	for _, p := range cfg.Peers {
		if p == cfg.Self {
			found = true
		}
	}
	if !found {
		return nil, fmt.Errorf("fleet: Self %q missing from Peers %v", cfg.Self, cfg.Peers)
	}
	n := &Node{
		cfg:      cfg,
		srv:      srv,
		inner:    srv.Handler(),
		plan:     &faults.Plan{},
		rec:      telemetry.NewRecorder(),
		adopting: map[string]bool{},
		stop:     make(chan struct{}),
		client: &http.Client{
			// No overall client timeout: per-request contexts carry the
			// proxy deadline, and hedged requests share one budget.
			Transport: &http.Transport{MaxIdleConnsPerHost: 16},
		},
	}
	n.fleetTraceID = trace.New().TraceID
	reg := srv.Metrics()
	n.metrics = fleetMetrics{
		peersLive: reg.Gauge("rqp_peers_live",
			"Fleet members currently considered live (self included)."),
		proxy: reg.CounterVec("rqp_proxy_requests_total",
			"Requests proxied to a peer by outcome (ok, client_error, shed, error).", "outcome"),
		proxySheds: reg.CounterVec("rqp_proxy_sheds_total",
			"Requests rejected at the proxy edge before reaching the owner, by reason (pressure, retry_budget).",
			"reason"),
		failovers: reg.Counter("rqp_failovers_total",
			"Orphaned durable runs resumed by this node after their owner was marked down."),
		hedges: reg.Counter("rqp_hedges_total",
			"Hedge requests launched for slow idempotent reads."),
	}
	// Pre-touch the edge-shed reasons so the family renders before the
	// first rejection (drills scrape deltas).
	n.metrics.proxySheds.With("pressure").Add(0)
	n.metrics.proxySheds.With("retry_budget").Add(0)
	// Fleet-aware overload hooks: the server's brownout tick folds in the
	// fleet pressure aggregate, and stage transitions are recorded into the
	// membership timeline (zero-width markers under the fleet trace ID).
	srv.SetFleetPressure(n.fleetPressureAggregate)
	srv.OnBrownoutStage(func(from, to int) {
		n.rec.Record(telemetry.Event{Kind: telemetry.BrownoutStage, Contour: to, Dim: from, Detail: n.cfg.Self})
		n.publishFleetTrace()
	})
	n.membership = newMembership(cfg.Self, cfg.Peers, cfg.HeartbeatInterval, cfg.ProbeTimeout,
		cfg.MaxBackoff, cfg.MarkDown, cfg.MarkUp, n.onTransition)
	n.metrics.peersLive.Set(float64(n.membership.LiveCount()))
	n.rebuildRing()
	return n, nil
}

// Start launches heartbeat probing, the initial orphan scan (adopting the
// share of on-disk sessions this node owns at boot), and the periodic
// rescan that catches sessions orphaned while this node was between
// transitions.
func (n *Node) Start() {
	n.membership.start()
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.scanOrphans()
		t := time.NewTicker(2 * n.cfg.HeartbeatInterval)
		defer t.Stop()
		for {
			select {
			case <-n.stop:
				return
			case <-t.C:
				n.scanOrphans()
			}
		}
	}()
}

// Close stops probing and background scans.
func (n *Node) Close() {
	n.closeOnce.Do(func() {
		close(n.stop)
		n.membership.close()
	})
	n.wg.Wait()
}

// FleetTraceID returns the trace ID the membership timeline is published
// under (GET /v1/runs/{id}/trace renders it like any run trace).
func (n *Node) FleetTraceID() string { return n.fleetTraceID }

// onTransition handles one heartbeat hysteresis crossing: rebuild the ring,
// emit the zero-width trace marker, update gauges, and — on a mark-down —
// immediately scan for the dead peer's orphaned sessions.
func (n *Node) onTransition(addr string, live bool) {
	n.rebuildRing()
	n.metrics.peersLive.Set(float64(n.membership.LiveCount()))
	kind := telemetry.PeerDown
	if live {
		kind = telemetry.PeerUp
	}
	n.rec.Record(telemetry.Event{Kind: kind, Dim: -1, Detail: addr})
	n.publishFleetTrace()
	if !live {
		// The dead peer's sessions re-hash to survivors NOW; adopt this
		// node's share without waiting for the periodic rescan.
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.scanOrphans()
		}()
	}
}

// publishFleetTrace re-derives the membership span tree and stores it.
func (n *Node) publishFleetTrace() {
	n.srv.RecordTrace(trace.FromFleet(n.fleetTraceID, n.rec.Events()))
}

// rebuildRing recomputes the consistent-hash ring over the live peer set.
func (n *Node) rebuildRing() {
	ring := NewRing(n.membership.Live(), n.cfg.Replicas)
	n.ringMu.Lock()
	n.ring = ring
	n.ringMu.Unlock()
}

// owner returns the live node owning a session key.
func (n *Node) owner(key string) string {
	n.ringMu.Lock()
	defer n.ringMu.Unlock()
	return n.ring.Owner(key)
}

// Handler mounts the fleet surface over the server's /v1 API:
//
//	GET  /v1/fleet/health  heartbeat endpoint (fault-injectable)
//	GET  /v1/fleet/peers   membership snapshot + ring + fleet trace ID
//	GET  /v1/fleet/route   ?key=X → the key's current owner
//	POST /v1/fleet/faults  chaos toggles (heartbeat dropping)
//
// plus ownership routing for every session-scoped request: serve locally
// when this node owns the session (adopting it first if it is orphaned on
// the shared disk), proxy to the owner otherwise.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/fleet/health", n.handleHealth)
	mux.HandleFunc("GET /v1/fleet/peers", n.handlePeers)
	mux.HandleFunc("GET /v1/fleet/vitals", n.handleVitals)
	mux.HandleFunc("GET /v1/fleet/route", n.handleRoute)
	mux.HandleFunc("POST /v1/fleet/faults", n.handleFaults)
	mux.HandleFunc("/", n.route)
	return mux
}

// fleetJSON writes a fleet-endpoint JSON response (the fleet surface sits
// outside the server's middleware, so it stamps its own trace identity).
func (n *Node) fleetJSON(w http.ResponseWriter, status int, v any) {
	if w.Header().Get("X-Request-ID") == "" {
		tp := trace.New()
		w.Header().Set("Traceparent", tp.Header())
		w.Header().Set("X-Request-ID", tp.TraceID)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// handleHealth answers heartbeat probes. It consults the node's chaos plan
// first: with heartbeat dropping injected, the node answers 503 — alive but
// unreachable as far as the fleet can tell, the asymmetric-partition case.
// Healthy responses piggyback the node's load vitals: heartbeats ARE the
// gossip channel, so saturation news travels at probe cadence with zero
// extra traffic.
func (n *Node) handleHealth(w http.ResponseWriter, r *http.Request) {
	if err := n.plan.OnHeartbeat(); err != nil {
		n.fleetJSON(w, http.StatusServiceUnavailable, map[string]string{
			"node": n.cfg.Self, "status": "partitioned", "error": err.Error(),
		})
		return
	}
	v := n.srv.Vitals()
	v.Node = n.cfg.Self
	n.fleetJSON(w, http.StatusOK, healthResponse{Node: n.cfg.Self, Status: "ok", Vitals: &v})
}

// handleVitals serves the node's fleet-wide load view: its own vitals, every
// fresh gossiped peer snapshot, and the derived pressure figures feeding the
// brownout controller — the operator's window into WHY a stage moved.
func (n *Node) handleVitals(w http.ResponseWriter, r *http.Request) {
	self := n.srv.Vitals()
	self.Node = n.cfg.Self
	peers := n.membership.PeerVitalsSnapshot()
	peerOut := map[string]any{}
	for addr, v := range peers {
		peerOut[addr] = map[string]any{"vitals": v, "pressure": v.Pressure()}
	}
	n.fleetJSON(w, http.StatusOK, map[string]any{
		"self":          self,
		"selfPressure":  self.Pressure(),
		"peers":         peerOut,
		"fleetPressure": n.fleetPressureAggregate(),
		"brownoutStage": n.srv.Stage(),
	})
}

// fleetPressureAggregate folds the fresh gossiped peer pressures into one
// scalar: the mean over peers with known vitals (0 when nothing is fresh —
// unknown load must not brown the node out). The brownout tick maxes this
// with the node's own local pressure, so a node browns out when IT is
// saturated or when the fleet around it is drowning — the latter matters
// because proxied load re-hashes to survivors the moment an owner dies.
func (n *Node) fleetPressureAggregate() float64 {
	peers := n.membership.PeerVitalsSnapshot()
	if len(peers) == 0 {
		return 0
	}
	var sum float64
	for _, v := range peers {
		sum += v.Pressure()
	}
	return sum / float64(len(peers))
}

// handlePeers serves the membership snapshot.
func (n *Node) handlePeers(w http.ResponseWriter, r *http.Request) {
	peers := n.membership.Snapshot()
	sort.Slice(peers, func(i, j int) bool {
		if peers[i].Self != peers[j].Self {
			return peers[i].Self
		}
		return peers[i].Addr < peers[j].Addr
	})
	n.fleetJSON(w, http.StatusOK, map[string]any{
		"self":         n.cfg.Self,
		"live":         n.membership.LiveCount(),
		"peers":        peers,
		"fleetTraceId": n.fleetTraceID,
	})
}

// handleRoute answers ?key=X with the key's current owner — the smoke
// drill's (and operators') window into placement.
func (n *Node) handleRoute(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		n.fleetJSON(w, http.StatusBadRequest, map[string]string{"error": "missing key parameter"})
		return
	}
	owner := n.owner(key)
	n.fleetJSON(w, http.StatusOK, map[string]any{
		"key": key, "owner": owner, "self": owner == n.cfg.Self,
	})
}

// fleetFaultsRequest is the chaos-toggle payload.
type fleetFaultsRequest struct {
	DropHeartbeats *bool `json:"dropHeartbeats"`
}

// handleFaults toggles the node's chaos plan at runtime (drill tooling).
func (n *Node) handleFaults(w http.ResponseWriter, r *http.Request) {
	var req fleetFaultsRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		n.fleetJSON(w, http.StatusBadRequest, map[string]string{"error": "bad payload: " + err.Error()})
		return
	}
	if req.DropHeartbeats != nil {
		n.plan.SetDropHeartbeats(*req.DropHeartbeats)
	}
	n.fleetJSON(w, http.StatusOK, map[string]any{
		"node": n.cfg.Self, "dropHeartbeats": req.DropHeartbeats != nil && *req.DropHeartbeats,
	})
}

// route is the ownership router for everything below the fleet endpoints.
// Requests already forwarded once (the proxy stamps ForwardedHeader) are
// always served locally — the sender routed on ITS ring view, and a second
// hop could only loop during a membership disagreement window.
func (n *Node) route(w http.ResponseWriter, r *http.Request) {
	// Give the request its trace identity up front: the routing decision
	// itself (a proxy error, an adoption 503) must be correlatable even
	// though the server middleware hasn't run yet.
	if r.Header.Get("Traceparent") == "" {
		r.Header.Set("Traceparent", trace.New().Header())
	}
	if r.Header.Get(ForwardedHeader) != "" {
		n.inner.ServeHTTP(w, r)
		return
	}
	if id, ok := createSessionRequest(r); ok {
		// Placement: mint the session ID here (or honor a pre-pinned one in
		// tests), hash it over the live ring, and create AT the owner with
		// the ID pinned, so every node derives the same placement.
		if id == "" {
			id = mintSessionID()
		}
		r.Header.Set(server.FleetSessionHeader, id)
		if owner := n.owner(id); owner != n.cfg.Self {
			n.proxy(w, r, owner)
			return
		}
		n.inner.ServeHTTP(w, r)
		return
	}
	id := sessionScope(r)
	if id == "" {
		// Node-local resources (queries, strategies, metrics, traces,
		// debug): every node answers for itself.
		n.inner.ServeHTTP(w, r)
		return
	}
	owner := n.owner(id)
	if owner != n.cfg.Self && owner != "" {
		n.proxy(w, r, owner)
		return
	}
	if !n.srv.HasSession(id) && n.sessionOnDisk(id) {
		// This node just became the owner of a session another node built:
		// adopt it (synchronous registration, asynchronous rebuild), then
		// serve — the client sees 409 session_building until rehydration
		// lands, same as a fresh create.
		n.adopt(id)
	}
	n.inner.ServeHTTP(w, r)
}

// createSessionRequest reports whether the request creates a session, and
// any pre-pinned fleet session ID it carries.
func createSessionRequest(r *http.Request) (string, bool) {
	if r.Method != http.MethodPost {
		return "", false
	}
	if r.URL.Path == "/v1/sessions" {
		return r.Header.Get(server.FleetSessionHeader), true
	}
	return "", false
}

// sessionScope extracts the owning session ID of a request path, or "" for
// node-local resources. Session-scoped shapes:
//
//	/v1/sessions/{id}[/...]
//	/v1/atlas?session={id}
func sessionScope(r *http.Request) string {
	p := r.URL.Path
	if rest, ok := strings.CutPrefix(p, "/v1/sessions/"); ok {
		id, _, _ := strings.Cut(rest, "/")
		return id
	}
	if p == "/v1/atlas" {
		return r.URL.Query().Get("session")
	}
	return ""
}
