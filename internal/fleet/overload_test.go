package fleet

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/guard"
	"repro/internal/server"
)

// saturatedVitals is a gossip snapshot reading as fully saturated (pressure
// 1.0): runs pegged at their AIMD limit.
func saturatedVitals(hint int) guard.Vitals {
	return guard.Vitals{RunInflight: 8, RunLimit: 8, RetryAfterHint: hint}
}

func TestHealthResponseCarriesVitals(t *testing.T) {
	n := testNode(t, "127.0.0.1:1", -1)
	w := httptest.NewRecorder()
	n.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/fleet/health", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("health status %d", w.Code)
	}
	var hr healthResponse
	if err := json.Unmarshal(w.Body.Bytes(), &hr); err != nil {
		t.Fatal(err)
	}
	if hr.Status != "ok" || hr.Vitals == nil {
		t.Fatalf("heartbeat lacks gossip payload: %+v", hr)
	}
	if hr.Vitals.Node != n.cfg.Self {
		t.Fatalf("vitals node %q, want %q", hr.Vitals.Node, n.cfg.Self)
	}
	if hr.Vitals.Goroutines <= 0 || hr.Vitals.RetryAfterHint < 1 {
		t.Fatalf("vitals not populated: %+v", hr.Vitals)
	}
}

func TestMembershipCachesGossipedVitals(t *testing.T) {
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		v := saturatedVitals(5)
		_ = json.NewEncoder(w).Encode(healthResponse{Node: "peer", Status: "ok", Vitals: &v})
	}))
	defer peer.Close()
	addr := strings.TrimPrefix(peer.URL, "http://")

	m := newMembership("self:1", []string{addr}, 5*time.Millisecond, 2, 2, nil)
	m.start()
	defer m.close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if v, ok := m.PeerVitals(addr); ok {
			if p := v.Pressure(); p != 1.0 {
				t.Fatalf("gossiped pressure %v, want 1.0", p)
			}
			if v.RetryAfterHint != 5 {
				t.Fatalf("gossiped hint %d, want 5", v.RetryAfterHint)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("vitals never gossiped through the heartbeat probe")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if snap := m.PeerVitalsSnapshot(); len(snap) != 1 {
		t.Fatalf("snapshot has %d peers, want 1", len(snap))
	}
}

func TestPeerVitalsGoStale(t *testing.T) {
	m := newMembership("self:1", []string{"peer:1"}, 5*time.Millisecond, 2, 2, nil)
	if _, ok := m.PeerVitals("peer:1"); ok {
		t.Fatal("never-probed peer reported fresh vitals")
	}
	m.setPeerVitals("peer:1", saturatedVitals(5))
	if _, ok := m.PeerVitals("peer:1"); !ok {
		t.Fatal("just-cached vitals reported stale")
	}
	// Past vitalsStaleAfter heartbeat intervals the cache must read unknown:
	// acting on it would shed against a peer that may have recovered.
	time.Sleep(vitalsStaleAfter*5*time.Millisecond + 10*time.Millisecond)
	if _, ok := m.PeerVitals("peer:1"); ok {
		t.Fatal("stale vitals still reported fresh")
	}
	if snap := m.PeerVitalsSnapshot(); len(snap) != 0 {
		t.Fatalf("stale snapshot not empty: %v", snap)
	}
}

func TestProxyEdgeShedsSaturatedOwner(t *testing.T) {
	var hits atomic.Int32
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusOK)
	}))
	defer owner.Close()
	ownerAddr := strings.TrimPrefix(owner.URL, "http://")

	n := testNode(t, ownerAddr, -1)
	n.membership.setPeerVitals(ownerAddr, saturatedVitals(5))
	id := keyOwnedBy(t, n, ownerAddr)

	w := httptest.NewRecorder()
	n.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/sessions/"+id, nil))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want edge-shed 503", w.Code)
	}
	if hits.Load() != 0 {
		t.Fatalf("owner saw %d requests; the edge shed must not touch the wire", hits.Load())
	}
	if !strings.Contains(w.Body.String(), "owner_overloaded") {
		t.Fatalf("error envelope: %s", w.Body.String())
	}
	// Retry-After quotes the owner's own hint (5) plus per-request jitter in
	// [0, 5/2+3).
	ra, err := strconv.Atoi(w.Header().Get("Retry-After"))
	if err != nil || ra < 5 || ra >= 10 {
		t.Fatalf("Retry-After %q, want the owner's hint 5 + jitter in [5, 10)", w.Header().Get("Retry-After"))
	}
	if v := n.metrics.proxySheds.With("pressure").Value(); v != 1 {
		t.Fatalf("rqp_proxy_sheds_total{pressure} = %v, want 1", v)
	}
	if w.Header().Get("X-Request-ID") == "" {
		t.Fatal("edge shed lacks trace identity")
	}

	// Stale vitals must NOT shed: after the staleness bound the same request
	// goes through to the owner.
	n.membership.mu.Lock()
	n.membership.peers[ownerAddr].vitalsAt = time.Now().Add(-time.Hour)
	n.membership.mu.Unlock()
	w = httptest.NewRecorder()
	n.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/sessions/"+id, nil))
	if hits.Load() != 1 {
		t.Fatalf("stale-vitals request did not reach the owner (hits %d)", hits.Load())
	}
}

func TestProxyRejectsSpentRetryBudget(t *testing.T) {
	var hits atomic.Int32
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusOK)
	}))
	defer owner.Close()
	ownerAddr := strings.TrimPrefix(owner.URL, "http://")

	n := testNode(t, ownerAddr, -1)
	id := keyOwnedBy(t, n, ownerAddr)

	req := httptest.NewRequest(http.MethodGet, "/v1/sessions/"+id, nil)
	req.Header.Set(RetryBudgetHeader, "0")
	w := httptest.NewRecorder()
	n.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 for a spent budget", w.Code)
	}
	if hits.Load() != 0 {
		t.Fatalf("owner saw %d requests despite a spent budget", hits.Load())
	}
	if !strings.Contains(w.Body.String(), "retry_budget_exhausted") {
		t.Fatalf("error envelope: %s", w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("budget rejection lacks Retry-After")
	}
	if v := n.metrics.proxySheds.With("retry_budget").Value(); v != 1 {
		t.Fatalf("rqp_proxy_sheds_total{retry_budget} = %v, want 1", v)
	}
}

func TestProxyStampsDecrementedBudgetDownstream(t *testing.T) {
	var got atomic.Value
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got.Store(r.Header.Get(RetryBudgetHeader))
		w.WriteHeader(http.StatusOK)
	}))
	defer owner.Close()
	ownerAddr := strings.TrimPrefix(owner.URL, "http://")

	n := testNode(t, ownerAddr, -1)
	id := keyOwnedBy(t, n, ownerAddr)

	// Default cap 3, primary spends 1 → the owner sees 2 remaining.
	w := httptest.NewRecorder()
	n.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/sessions/"+id, nil))
	if v, _ := got.Load().(string); v != "2" {
		t.Fatalf("forwarded budget %q, want %q (cap 3 minus the primary)", v, "2")
	}

	// An inflated incoming header cannot raise the cap...
	req := httptest.NewRequest(http.MethodGet, "/v1/sessions/"+id, nil)
	req.Header.Set(RetryBudgetHeader, "99")
	n.Handler().ServeHTTP(httptest.NewRecorder(), req)
	if v, _ := got.Load().(string); v != "2" {
		t.Fatalf("forwarded budget %q after inflated header, want %q", v, "2")
	}

	// ...but a lower one tightens it.
	req = httptest.NewRequest(http.MethodGet, "/v1/sessions/"+id, nil)
	req.Header.Set(RetryBudgetHeader, "1")
	n.Handler().ServeHTTP(httptest.NewRecorder(), req)
	if v, _ := got.Load().(string); v != "0" {
		t.Fatalf("forwarded budget %q after header 1, want %q", v, "0")
	}
}

func TestProxyBudgetCapsHedge(t *testing.T) {
	var hits atomic.Int32
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			time.Sleep(60 * time.Millisecond)
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, `{"ok":true}`)
	}))
	defer owner.Close()
	ownerAddr := strings.TrimPrefix(owner.URL, "http://")

	n := testNode(t, ownerAddr, 5*time.Millisecond)
	id := keyOwnedBy(t, n, ownerAddr)

	// Budget 1: the primary spends the only token, so the hedge that would
	// fire at 5ms must stay grounded even though the primary dawdles.
	req := httptest.NewRequest(http.MethodGet, "/v1/sessions/"+id, nil)
	req.Header.Set(RetryBudgetHeader, "1")
	w := httptest.NewRecorder()
	n.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if v := n.metrics.hedges.Value(); v != 0 {
		t.Fatalf("rqp_hedges_total = %v, want 0 (budget exhausted)", v)
	}
	if hits.Load() != 1 {
		t.Fatalf("owner saw %d requests, want the primary only", hits.Load())
	}
}

func TestProxyHedgeSuppressedByOwnerPressure(t *testing.T) {
	var hits atomic.Int32
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			time.Sleep(60 * time.Millisecond)
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, `{"ok":true}`)
	}))
	defer owner.Close()
	ownerAddr := strings.TrimPrefix(owner.URL, "http://")

	n := testNode(t, ownerAddr, 5*time.Millisecond)
	id := keyOwnedBy(t, n, ownerAddr)

	// Owner pressure 0.75: above hedgePressure (0.6) but below shedPressure
	// (0.9) — forwarded, not shed, but never hedged.
	n.membership.setPeerVitals(ownerAddr, guard.Vitals{RunInflight: 6, RunLimit: 8})
	w := httptest.NewRecorder()
	n.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/sessions/"+id, nil))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if v := n.metrics.hedges.Value(); v != 0 {
		t.Fatalf("rqp_hedges_total = %v, want 0 (owner under pressure)", v)
	}
	if hits.Load() != 1 {
		t.Fatalf("owner saw %d requests, want 1 — a hedge against a pressured owner is amplification", hits.Load())
	}
}

func TestProxyHedgeSuppressedDuringBrownout(t *testing.T) {
	var hits atomic.Int32
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			time.Sleep(60 * time.Millisecond)
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, `{"ok":true}`)
	}))
	defer owner.Close()
	ownerAddr := strings.TrimPrefix(owner.URL, "http://")

	// A dwell no test outlives: once the stage is up, no run of calm ticks
	// can step it down, so it is held while the request is proxied (with
	// the default three 1 ms ticks it could fall back to 0 before the
	// proxy decided whether to hedge).
	srv := server.NewWithConfig(server.Config{
		DataDir: t.TempDir(), Brownout: true, BrownoutInterval: time.Millisecond,
		BrownoutConfig: guard.BrownoutConfig{DwellTicks: math.MaxInt32},
	})
	t.Cleanup(func() { srv.Close() })
	n, err := New(Config{
		Self:              "127.0.0.1:9",
		Peers:             []string{"127.0.0.1:9", ownerAddr},
		DataDir:           t.TempDir(),
		HeartbeatInterval: time.Second,
		HedgeDelay:        5 * time.Millisecond,
	}, srv)
	if err != nil {
		t.Fatal(err)
	}
	// Saturate the fleet view: the peer's gossiped pressure (1.0) drives the
	// fleet aggregate, and the brownout tick lifts the local stage off it —
	// the full fleet-pressure → brownout → hedge-suppression chain.
	n.membership.setPeerVitals(ownerAddr, saturatedVitals(5))
	srv.StartBrownout()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stage() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("fleet pressure never lifted the brownout stage")
		}
		time.Sleep(time.Millisecond)
	}
	// Drop the gossiped pressure below hedgePressure so only the brownout
	// stage (not owner pressure) can be suppressing the hedge. The controller
	// holds stage ≥ 1 for DwellTicks after pressure recedes.
	n.membership.setPeerVitals(ownerAddr, guard.Vitals{})
	held := srv.Stage()

	id := keyOwnedBy(t, n, ownerAddr)
	w := httptest.NewRecorder()
	n.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/sessions/"+id, nil))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if v := n.metrics.hedges.Value(); v != 0 {
		t.Fatalf("rqp_hedges_total = %v, want 0 during brownout", v)
	}
	if st := srv.Stage(); st < held {
		t.Fatalf("brownout stage fell from %d to %d while the request was proxied", held, st)
	}
}

func TestFleetVitalsEndpoint(t *testing.T) {
	n := testNode(t, "127.0.0.1:1", -1)
	n.membership.setPeerVitals("127.0.0.1:1", saturatedVitals(5))

	w := httptest.NewRecorder()
	n.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/fleet/vitals", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("vitals status %d", w.Code)
	}
	var body struct {
		Self          guard.Vitals              `json:"self"`
		SelfPressure  float64                   `json:"selfPressure"`
		Peers         map[string]map[string]any `json:"peers"`
		FleetPressure float64                   `json:"fleetPressure"`
		BrownoutStage int                       `json:"brownoutStage"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Self.Node != n.cfg.Self {
		t.Fatalf("self vitals node %q", body.Self.Node)
	}
	if body.FleetPressure != 1.0 {
		t.Fatalf("fleetPressure %v, want 1.0 (sole peer saturated)", body.FleetPressure)
	}
	peer, ok := body.Peers["127.0.0.1:1"]
	if !ok || peer["pressure"].(float64) != 1.0 {
		t.Fatalf("peer entry missing or unpressured: %v", body.Peers)
	}
	if body.BrownoutStage != 0 {
		t.Fatalf("brownoutStage %d on a calm node", body.BrownoutStage)
	}
}

func TestFleetPressureAggregate(t *testing.T) {
	n := testNode(t, "127.0.0.1:1", -1)
	if p := n.fleetPressureAggregate(); p != 0 {
		t.Fatalf("aggregate %v with no fresh gossip, want 0 (unknown load is not overload)", p)
	}
	n.membership.setPeerVitals("127.0.0.1:1", guard.Vitals{RunInflight: 4, RunLimit: 8})
	if p := n.fleetPressureAggregate(); p != 0.5 {
		t.Fatalf("aggregate %v, want 0.5", p)
	}
}
