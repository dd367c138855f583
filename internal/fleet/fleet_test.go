package fleet

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
)

func TestRingDeterministicAcrossViews(t *testing.T) {
	nodes := []string{"10.0.0.1:80", "10.0.0.2:80", "10.0.0.3:80"}
	a := NewRing(nodes)
	// A permuted (and duplicated) peer list is the same ring: every node
	// computes placement independently from its own -peers flag, and the
	// views must agree.
	b := NewRing([]string{"10.0.0.3:80", "10.0.0.1:80", "10.0.0.2:80", "10.0.0.1:80"})
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("f%04d", i)
		if a.Owner(key) != b.Owner(key) {
			t.Fatalf("ring views disagree on %s: %s vs %s", key, a.Owner(key), b.Owner(key))
		}
	}
}

func TestRingRebalanceMovesOnlyDeadOwnersKeys(t *testing.T) {
	nodes := []string{"10.0.0.1:80", "10.0.0.2:80", "10.0.0.3:80"}
	full := NewRing(nodes)
	shrunk := NewRing([]string{"10.0.0.1:80", "10.0.0.3:80"})

	perOwner := map[string]int{}
	for i := 0; i < 3000; i++ {
		key := fmt.Sprintf("f%04d", i)
		before := full.Owner(key)
		perOwner[before]++
		after := shrunk.Owner(key)
		if before != "10.0.0.2:80" && after != before {
			t.Fatalf("key %s moved %s -> %s although its owner survived", key, before, after)
		}
		if before == "10.0.0.2:80" && after == "10.0.0.2:80" {
			t.Fatalf("key %s still routed to the removed node", key)
		}
	}
	// Consistent hashing must also spread keys: no member owns everything
	// or (nearly) nothing.
	for _, n := range nodes {
		if perOwner[n] < 3000/10 {
			t.Errorf("lopsided ring: %s owns only %d/3000 keys", n, perOwner[n])
		}
	}
}

// TestRingBalance checks the ring spreads session-style keys ("f" + 12 hex
// digits) evenly over loopback fleets whose addresses differ only in the
// port: every node's share of 8,000 keys stays within [0.5, 1.6]x of fair.
func TestRingBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	keys := make([]string, 8000)
	for i := range keys {
		keys[i] = fmt.Sprintf("f%012x", rng.Int63()&(1<<48-1))
	}
	for _, base := range []int{8081, 18431, 20000, 34567, 45001} {
		for _, size := range []int{2, 3, 5, 8} {
			nodes := make([]string, size)
			for i := range nodes {
				nodes[i] = fmt.Sprintf("127.0.0.1:%d", base+i)
			}
			r := NewRing(nodes)
			owned := map[string]int{}
			for _, k := range keys {
				owned[r.Owner(k)]++
			}
			fair := float64(len(keys)) / float64(size)
			for _, n := range nodes {
				if share := float64(owned[n]) / fair; share < 0.5 || share > 1.6 {
					t.Errorf("%d nodes from :%d: %s owns %.2fx its fair share", size, base, n, share)
				}
			}
		}
	}
}

func TestRingSingleNodeOwnsAll(t *testing.T) {
	r := NewRing([]string{"10.0.0.1:80"})
	for i := 0; i < 50; i++ {
		if o := r.Owner(fmt.Sprintf("k%d", i)); o != "10.0.0.1:80" {
			t.Fatalf("sole member does not own key: %s", o)
		}
	}
}

func TestMembershipHysteresis(t *testing.T) {
	m := newMembership("self:1", []string{"peer:1"}, 10*time.Millisecond, 3, 2, nil)
	var transitions []string
	m.onTransition = func(addr string, live bool) {
		transitions = append(transitions, fmt.Sprintf("%s=%v", addr, live))
	}

	fail := fmt.Errorf("probe: connection refused")
	// Optimistic start: live until MarkDown consecutive failures.
	if got := m.Live(); len(got) != 2 {
		t.Fatalf("fresh membership live set: %v", got)
	}
	m.observe("peer:1", false, nil, fail)
	m.observe("peer:1", true, nil, nil) // a success resets the failure streak
	m.observe("peer:1", false, nil, fail)
	m.observe("peer:1", false, nil, fail)
	if len(transitions) != 0 {
		t.Fatalf("peer marked down before %d consecutive failures: %v", 3, transitions)
	}
	next := m.observe("peer:1", false, nil, fail) // third consecutive: down
	if len(transitions) != 1 || transitions[0] != "peer:1=false" {
		t.Fatalf("mark-down transition missing: %v", transitions)
	}
	if next != 10*time.Millisecond {
		t.Fatalf("first down-probe delay %v, want the base interval", next)
	}
	// Backoff doubles while down, capped.
	if next = m.observe("peer:1", false, nil, fail); next != 20*time.Millisecond {
		t.Fatalf("backoff after second down-probe = %v, want 20ms", next)
	}
	for i := 0; i < 6; i++ {
		next = m.observe("peer:1", false, nil, fail)
	}
	if next != 80*time.Millisecond {
		t.Fatalf("backoff not capped: %v", next)
	}

	// One success is not enough to rejoin (MarkUp=2)...
	m.observe("peer:1", true, nil, nil)
	if len(transitions) != 1 {
		t.Fatalf("peer rejoined after a single success: %v", transitions)
	}
	if got := m.Live(); len(got) != 1 || got[0] != "self:1" {
		t.Fatalf("down peer still in live set: %v", got)
	}
	// ...two are.
	if next = m.observe("peer:1", true, nil, nil); next != 10*time.Millisecond {
		t.Fatalf("probe cadence after recovery = %v, want the base interval", next)
	}
	if len(transitions) != 2 || transitions[1] != "peer:1=true" {
		t.Fatalf("mark-up transition missing: %v", transitions)
	}
	if got := m.Live(); len(got) != 2 {
		t.Fatalf("recovered peer missing from live set: %v", got)
	}
}

func TestMembershipProbesRealListeners(t *testing.T) {
	var healthy atomic.Bool
	healthy.Store(true)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/fleet/health" {
			t.Errorf("probe hit %s, want /v1/fleet/health", r.URL.Path)
		}
		if !healthy.Load() {
			http.Error(w, "partitioned", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer peer.Close()
	addr := strings.TrimPrefix(peer.URL, "http://")

	downc := make(chan bool, 8)
	m := newMembership("self:1", []string{addr}, 5*time.Millisecond, 2, 2, func(_ string, live bool) { downc <- live })
	m.start()
	defer m.close()

	healthy.Store(false) // a 503-ing health endpoint is a partitioned peer
	select {
	case live := <-downc:
		if live {
			t.Fatal("first transition was a mark-up")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("unhealthy peer never marked down")
	}
	healthy.Store(true)
	select {
	case live := <-downc:
		if !live {
			t.Fatal("expected a mark-up transition")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("healed peer never marked back up")
	}
}

// testNode builds an unstarted fleet node (no probing, no rescan ticker)
// whose ring spans self plus the given peer address.
func testNode(t *testing.T, peer string, hedge time.Duration) *Node {
	t.Helper()
	srv := server.NewWithConfig(server.Config{DataDir: t.TempDir()})
	t.Cleanup(func() { srv.Close() })
	n, err := New(Config{
		Self:              "127.0.0.1:9",
		Peers:             []string{"127.0.0.1:9", peer},
		DataDir:           t.TempDir(),
		HeartbeatInterval: time.Second,
		HedgeDelay:        hedge,
	}, srv)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// keyOwnedBy finds a session ID the ring places on owner.
func keyOwnedBy(t *testing.T, n *Node, owner string) string {
	t.Helper()
	for i := 0; i < 4096; i++ {
		id := fmt.Sprintf("f%04d", i)
		if n.owner(id) == owner {
			return id
		}
	}
	t.Fatalf("no key hashes to %s", owner)
	return ""
}

func TestProxyForwardsDownstreamRetryAfter(t *testing.T) {
	// The downstream owner sheds with an explicit cooldown; the fronting
	// node must hand that exact value to the client, not its generic
	// fallback.
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		http.Error(w, `{"error":{"code":"overloaded"}}`, http.StatusServiceUnavailable)
	}))
	defer owner.Close()
	ownerAddr := strings.TrimPrefix(owner.URL, "http://")

	n := testNode(t, ownerAddr, -1)
	id := keyOwnedBy(t, n, ownerAddr)

	req := httptest.NewRequest(http.MethodGet, "/v1/sessions/"+id, nil)
	w := httptest.NewRecorder()
	n.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want proxied 503", w.Code)
	}
	if got := w.Header().Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After %q, want the downstream's own %q", got, "7")
	}
	if w.Header().Get("Traceparent") == "" || w.Header().Get("X-Request-ID") == "" {
		t.Fatal("proxied shed response lacks trace identity")
	}
	if v := n.metrics.proxy.With("shed").Value(); v != 1 {
		t.Fatalf("rqp_proxy_requests_total{outcome=shed} = %v, want 1", v)
	}
}

func TestProxyUnreachableOwnerAdvertisesHeartbeat(t *testing.T) {
	// Nothing listens on the owner address: the proxy must fail fast with a
	// 502 whose Retry-After matches the heartbeat interval — the soonest
	// routing can have changed.
	n := testNode(t, "127.0.0.1:1", -1)
	id := keyOwnedBy(t, n, "127.0.0.1:1")

	req := httptest.NewRequest(http.MethodPost, "/v1/sessions/"+id+"/run", strings.NewReader(`{}`))
	w := httptest.NewRecorder()
	n.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusBadGateway {
		t.Fatalf("status %d, want 502", w.Code)
	}
	if got := w.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After %q, want %q (one heartbeat interval)", got, "1")
	}
	if !strings.Contains(w.Body.String(), "peer_unreachable") {
		t.Fatalf("error envelope: %s", w.Body.String())
	}
	if v := n.metrics.proxy.With("error").Value(); v != 1 {
		t.Fatalf("rqp_proxy_requests_total{outcome=error} = %v, want 1", v)
	}
}

// TestFleetBadRequestsAnswerTheEnvelope: the fleet's own 400s use the
// server's uniform error envelope, {"error":{"code","message","traceId"}},
// with the trace ID the response's X-Request-ID carries.
func TestFleetBadRequestsAnswerTheEnvelope(t *testing.T) {
	n := testNode(t, "127.0.0.1:1", -1)
	for _, req := range []*http.Request{
		httptest.NewRequest(http.MethodGet, "/v1/fleet/route", nil),
		httptest.NewRequest(http.MethodPost, "/v1/fleet/faults", strings.NewReader("{")),
	} {
		w := httptest.NewRecorder()
		n.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusBadRequest {
			t.Fatalf("%s %s: status %d, want 400", req.Method, req.URL, w.Code)
		}
		var body struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
				TraceID string `json:"traceId"`
			} `json:"error"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s %s: body %q is not the envelope: %v", req.Method, req.URL, w.Body.String(), err)
		}
		e := body.Error
		if e.Code != "bad_request" || e.Message == "" || e.TraceID == "" || e.TraceID != w.Header().Get("X-Request-ID") {
			t.Errorf("%s %s: envelope %+v (X-Request-ID %q)", req.Method, req.URL, e, w.Header().Get("X-Request-ID"))
		}
	}
}

func TestProxyHedgesSlowIdempotentReads(t *testing.T) {
	var hits atomic.Int32
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			time.Sleep(150 * time.Millisecond) // slow primary
		}
		w.Header().Set("X-Hit", fmt.Sprint(hits.Load()))
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, `{"ok":true}`)
	}))
	defer owner.Close()
	ownerAddr := strings.TrimPrefix(owner.URL, "http://")

	n := testNode(t, ownerAddr, 5*time.Millisecond)
	id := keyOwnedBy(t, n, ownerAddr)

	start := time.Now()
	req := httptest.NewRequest(http.MethodGet, "/v1/sessions/"+id, nil)
	w := httptest.NewRecorder()
	n.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if v := n.metrics.hedges.Value(); v != 1 {
		t.Fatalf("rqp_hedges_total = %v, want 1", v)
	}
	// The hedge, not the slow primary, should have answered.
	if el := time.Since(start); el > 100*time.Millisecond {
		t.Errorf("hedged read took %v; the 150ms primary appears to have been awaited", el)
	}
	if hits.Load() != 2 {
		t.Errorf("owner saw %d requests, want primary+hedge", hits.Load())
	}
}

func TestProxyHedgedWinnerBodyDeliveredIntact(t *testing.T) {
	// Regression: forward() used to cancel BOTH attempts' contexts the
	// moment a winner emerged — including the winner's own — so the proxy
	// copied the response body under a canceled context and every hedged
	// read could be silently truncated after the status line was written.
	payload := strings.Repeat("x", 1<<18)
	var hits atomic.Int32
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			time.Sleep(150 * time.Millisecond) // slow primary: the hedge wins
		}
		w.WriteHeader(http.StatusOK)
		// Stream the body in two flushed chunks with a pause, so it is
		// still in flight when forward() hands the winning response back.
		fmt.Fprint(w, payload[:1024])
		w.(http.Flusher).Flush()
		time.Sleep(50 * time.Millisecond)
		fmt.Fprint(w, payload[1024:])
	}))
	defer owner.Close()
	ownerAddr := strings.TrimPrefix(owner.URL, "http://")

	n := testNode(t, ownerAddr, 5*time.Millisecond)
	id := keyOwnedBy(t, n, ownerAddr)

	req := httptest.NewRequest(http.MethodGet, "/v1/sessions/"+id, nil)
	w := httptest.NewRecorder()
	n.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if v := n.metrics.hedges.Value(); v != 1 {
		t.Fatalf("rqp_hedges_total = %v, want 1", v)
	}
	if got := w.Body.Len(); got != len(payload) {
		t.Fatalf("hedged response body truncated: %d of %d bytes reached the client", got, len(payload))
	}
}

func TestProxyHedgeLaunchesEarlyWhenPrimaryDies(t *testing.T) {
	// The primary attempt AND its read-class retry die on the wire long
	// before the hedge delay elapses: the hedge must launch immediately
	// instead of waiting out the delay (the "early hedge" rule).
	var hits atomic.Int32
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			// Kill the connection before any response bytes: a transport
			// error, consuming the primary and its one retry.
			if c, _, err := w.(http.Hijacker).Hijack(); err == nil {
				c.Close()
			}
			return
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, `{"ok":true}`)
	}))
	defer owner.Close()
	ownerAddr := strings.TrimPrefix(owner.URL, "http://")

	// A hedge delay far beyond the test budget: only the early launch can
	// answer quickly.
	n := testNode(t, ownerAddr, 10*time.Second)
	id := keyOwnedBy(t, n, ownerAddr)

	start := time.Now()
	req := httptest.NewRequest(http.MethodGet, "/v1/sessions/"+id, nil)
	w := httptest.NewRecorder()
	n.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Errorf("dead primary waited out the hedge delay: %v", el)
	}
	if v := n.metrics.hedges.Value(); v != 1 {
		t.Fatalf("rqp_hedges_total = %v, want 1 early hedge", v)
	}
	if hits.Load() != 3 {
		t.Errorf("owner saw %d requests, want primary + retry + early hedge", hits.Load())
	}
}

func TestProxyWritesAreNeverHedged(t *testing.T) {
	var hits atomic.Int32
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		time.Sleep(30 * time.Millisecond)
		w.WriteHeader(http.StatusOK)
	}))
	defer owner.Close()
	ownerAddr := strings.TrimPrefix(owner.URL, "http://")

	n := testNode(t, ownerAddr, time.Millisecond)
	id := keyOwnedBy(t, n, ownerAddr)

	req := httptest.NewRequest(http.MethodPost, "/v1/sessions/"+id+"/run", strings.NewReader(`{}`))
	w := httptest.NewRecorder()
	n.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	if v := n.metrics.hedges.Value(); v != 0 {
		t.Fatalf("a write was hedged: rqp_hedges_total = %v", v)
	}
	if hits.Load() != 1 {
		t.Fatalf("owner saw %d requests for one write", hits.Load())
	}
}

func TestForwardedRequestsServedLocally(t *testing.T) {
	// A request that already crossed one hop must be served locally even if
	// this node's ring view says a peer owns it — the loop-prevention rule.
	n := testNode(t, "127.0.0.1:1", -1)
	id := keyOwnedBy(t, n, "127.0.0.1:1")

	req := httptest.NewRequest(http.MethodGet, "/v1/sessions/"+id, nil)
	req.Header.Set(ForwardedHeader, "127.0.0.1:1")
	w := httptest.NewRecorder()
	n.Handler().ServeHTTP(w, req)
	// Served by the local server (which has no such session): a clean local
	// 404 — NOT a 502 from re-proxying to the unreachable "owner".
	if w.Code != http.StatusNotFound {
		t.Fatalf("forwarded request: status %d, want local 404", w.Code)
	}
	if v := n.metrics.proxy.With("error").Value(); v != 0 {
		t.Fatalf("forwarded request was re-proxied: %v", v)
	}
}

func TestHopHeadersStripped(t *testing.T) {
	var got http.Header
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = r.Header.Clone()
		w.WriteHeader(http.StatusOK)
	}))
	defer owner.Close()
	ownerAddr := strings.TrimPrefix(owner.URL, "http://")

	n := testNode(t, ownerAddr, -1)
	id := keyOwnedBy(t, n, ownerAddr)

	req := httptest.NewRequest(http.MethodGet, "/v1/sessions/"+id, nil)
	req.Header.Set("Proxy-Authorization", "secret")
	req.Header.Set("X-Custom", "kept")
	w := httptest.NewRecorder()
	n.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	if got.Get("Proxy-Authorization") != "" {
		t.Error("hop-by-hop header crossed the proxy")
	}
	if got.Get("X-Custom") != "kept" {
		t.Error("end-to-end header dropped by the proxy")
	}
	if got.Get(ForwardedHeader) != "127.0.0.1:9" {
		t.Errorf("forwarding marker %q, want the sender's self address", got.Get(ForwardedHeader))
	}
	if got.Get(DeadlineHeader) == "" {
		t.Error("proxied request carries no deadline")
	}
	if _, err := time.Parse(time.RFC3339Nano, got.Get(DeadlineHeader)); err != nil {
		t.Errorf("deadline header %q not RFC3339Nano: %v", got.Get(DeadlineHeader), err)
	}
}

// TestSessionScope pins which request shapes are routed to a session's ring
// owner: only the /v1 session and atlas resources. Unversioned paths are
// node-local: the server does not mount them, so the receiving node answers
// 404 itself.
func TestSessionScope(t *testing.T) {
	cases := []struct {
		method, target, want string
		create               bool
	}{
		{http.MethodPost, "/v1/sessions", "", true},
		{http.MethodGet, "/v1/sessions/x", "x", false},
		{http.MethodPost, "/v1/sessions/x/run", "x", false},
		{http.MethodGet, "/v1/atlas?session=x", "x", false},
		{http.MethodPost, "/sessions", "", false},
		{http.MethodGet, "/sessions/x", "", false},
		{http.MethodPost, "/sessions/x/run", "", false},
		{http.MethodGet, "/atlas?session=x", "", false},
		{http.MethodGet, "/v1/healthz", "", false},
	}
	for _, c := range cases {
		r := httptest.NewRequest(c.method, c.target, nil)
		if got := sessionScope(r); got != c.want {
			t.Errorf("sessionScope(%s %s) = %q, want %q", c.method, c.target, got, c.want)
		}
		if _, create := createSessionRequest(r); create != c.create {
			t.Errorf("createSessionRequest(%s %s) = %v, want %v", c.method, c.target, create, c.create)
		}
	}
}
