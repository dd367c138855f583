package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/guard"
)

// Membership tracks the liveness of the fleet's peers by periodic heartbeat
// probes (GET /v1/fleet/health with a short per-probe timeout). State
// transitions are hysteretic — MarkDown consecutive failures take a peer
// down, MarkUp consecutive successes bring it back — so one dropped packet
// never reshuffles the ring, and a flapping peer must prove itself before
// reclaiming its sessions. While a peer is down its probe cadence backs off
// exponentially (capped), so a long-dead node costs a trickle, not a
// heartbeat storm.
//
// Peers start optimistically live: at boot the ring spans the full static
// peer list, and genuinely dead peers are marked down within
// MarkDown*Interval. The alternative (pessimistic start) would make every
// node adopt the whole keyspace during a rolling restart.
type Membership struct {
	self     string
	interval time.Duration
	timeout  time.Duration
	markDown int
	markUp   int
	maxBack  time.Duration
	client   *http.Client

	// onTransition fires outside the member lock on every down/up crossing.
	onTransition func(addr string, live bool)

	mu    sync.Mutex
	peers map[string]*member

	stop chan struct{}
	wg   sync.WaitGroup
}

// member is one probed peer's hysteresis state plus its last gossiped load
// vitals (heartbeat responses piggyback the peer's vitals payload).
type member struct {
	addr     string
	live     bool
	fails    int // consecutive probe failures
	oks      int // consecutive probe successes
	backoff  time.Duration
	lastErr  string
	probes   int
	lastSeen time.Time

	// vitals is the peer's last advertised load snapshot; vitalsAt is when
	// the advertising probe landed (zero = never). Consumers must treat
	// vitals older than the staleness bound as unknown — routing decisions
	// on stale saturation data would shed against a peer that recovered.
	vitals   guard.Vitals
	vitalsAt time.Time
}

// PeerStatus is the externally visible liveness record of one fleet member
// (self included), served by GET /v1/fleet/peers.
type PeerStatus struct {
	Addr string `json:"addr"`
	Self bool   `json:"self,omitempty"`
	Live bool   `json:"live"`
	// Fails and Oks are the current consecutive-probe counters feeding the
	// mark-down/mark-up hysteresis.
	Fails int `json:"fails,omitempty"`
	Oks   int `json:"oks,omitempty"`
	// Probes counts probes sent to this peer; LastError is the most recent
	// probe failure (sticky until the next success).
	Probes   int    `json:"probes,omitempty"`
	LastErr  string `json:"lastError,omitempty"`
	LastSeen string `json:"lastSeen,omitempty"`
}

// newMembership wires a membership tracker for self over the static peer
// list; probing starts with start(). Each probe times out at half the
// interval, and a down peer's probe backoff caps at 8 intervals.
func newMembership(self string, peers []string, interval time.Duration,
	markDown, markUp int, onTransition func(addr string, live bool)) *Membership {
	m := &Membership{
		self:     self,
		interval: interval,
		timeout:  interval / 2,
		markDown: markDown,
		markUp:   markUp,
		maxBack:  8 * interval,
		client: &http.Client{
			Timeout: interval / 2,
			// Heartbeats are tiny and latency-sensitive: don't let a wedged
			// keep-alive connection stand in for the peer's actual health.
			Transport: &http.Transport{DisableKeepAlives: true},
		},
		onTransition: onTransition,
		peers:        map[string]*member{},
		stop:         make(chan struct{}),
	}
	for _, addr := range peers {
		if addr == "" || addr == self {
			continue
		}
		m.peers[addr] = &member{addr: addr, live: true}
	}
	return m
}

// start launches one probe loop per peer.
func (m *Membership) start() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, p := range m.peers {
		m.wg.Add(1)
		go m.probeLoop(p.addr)
	}
}

// close stops every probe loop and waits them out.
func (m *Membership) close() {
	close(m.stop)
	m.wg.Wait()
}

// probeLoop probes one peer forever at the membership cadence, stretching
// to the backed-off cadence while the peer is down.
func (m *Membership) probeLoop(addr string) {
	defer m.wg.Done()
	timer := time.NewTimer(m.interval)
	defer timer.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-timer.C:
		}
		ok, vitals, err := m.probe(addr)
		next := m.observe(addr, ok, vitals, err)
		timer.Reset(next)
	}
}

// healthResponse is the heartbeat payload: liveness plus the gossiped load
// vitals (see Node.handleHealth).
type healthResponse struct {
	Node   string        `json:"node"`
	Status string        `json:"status"`
	Vitals *guard.Vitals `json:"vitals,omitempty"`
}

// probe performs one heartbeat: any 2xx body counts as alive, anything else
// (timeout, refused connection, 503 from a fault-injected handler) counts
// as a failure. A successful probe's body carries the peer's load vitals —
// the gossip channel — returned for observe to cache.
func (m *Membership) probe(addr string) (bool, *guard.Vitals, error) {
	ctx, cancel := context.WithTimeout(context.Background(), m.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/v1/fleet/health", nil)
	if err != nil {
		return false, nil, err
	}
	resp, err := m.client.Do(req)
	if err != nil {
		return false, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return false, nil, fmt.Errorf("health probe: status %d", resp.StatusCode)
	}
	var hr healthResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&hr); err != nil {
		// An alive peer with an undecodable body (older build mid-rolling-
		// restart) is still alive; it just has no vitals to gossip.
		return true, nil, nil
	}
	return true, hr.Vitals, nil
}

// observe feeds one probe outcome into the hysteresis state and returns the
// delay until the peer's next probe. Transitions fire the callback outside
// the lock.
func (m *Membership) observe(addr string, ok bool, vitals *guard.Vitals, err error) time.Duration {
	m.mu.Lock()
	p := m.peers[addr]
	if p == nil {
		m.mu.Unlock()
		return m.interval
	}
	p.probes++
	var transition bool
	var nowLive bool
	if ok {
		p.oks++
		p.fails = 0
		p.lastErr = ""
		p.lastSeen = time.Now()
		p.backoff = 0
		if vitals != nil {
			p.vitals = *vitals
			p.vitalsAt = p.lastSeen
		}
		if !p.live && p.oks >= m.markUp {
			p.live, transition, nowLive = true, true, true
		}
	} else {
		p.fails++
		p.oks = 0
		if err != nil {
			p.lastErr = err.Error()
		}
		if p.live && p.fails >= m.markDown {
			p.live, transition, nowLive = false, true, false
		}
	}
	next := m.interval
	if !p.live {
		// Exponential probe backoff while down, capped: a dead peer is
		// cheap to keep an eye on, and the first successful probe resets
		// the cadence.
		if p.backoff < m.interval {
			p.backoff = m.interval
		} else {
			p.backoff *= 2
		}
		if p.backoff > m.maxBack {
			p.backoff = m.maxBack
		}
		next = p.backoff
	}
	m.mu.Unlock()
	if transition && m.onTransition != nil {
		m.onTransition(addr, nowLive)
	}
	return next
}

// vitalsStaleAfter is the gossip staleness bound in heartbeat intervals: a
// cached vitals snapshot older than this is treated as unknown rather than
// acted on — edge-shedding against a peer on data three probes old would
// keep rejecting after the peer recovered.
const vitalsStaleAfter = 3

// PeerVitals returns the peer's last gossiped vitals, when fresh (cached
// within vitalsStaleAfter heartbeat intervals). ok is false for self,
// unknown addresses, never-probed peers, and stale caches.
func (m *Membership) PeerVitals(addr string) (guard.Vitals, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.peers[addr]
	if p == nil || p.vitalsAt.IsZero() {
		return guard.Vitals{}, false
	}
	if time.Since(p.vitalsAt) > vitalsStaleAfter*m.interval {
		return guard.Vitals{}, false
	}
	return p.vitals, true
}

// PeerVitalsSnapshot returns every live peer's fresh vitals keyed by
// address (self excluded — the caller owns its local snapshot).
func (m *Membership) PeerVitalsSnapshot() map[string]guard.Vitals {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := map[string]guard.Vitals{}
	now := time.Now()
	for addr, p := range m.peers {
		if !p.live || p.vitalsAt.IsZero() || now.Sub(p.vitalsAt) > vitalsStaleAfter*m.interval {
			continue
		}
		out[addr] = p.vitals
	}
	return out
}

// setPeerVitals force-caches a peer's vitals (tests).
func (m *Membership) setPeerVitals(addr string, v guard.Vitals) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if p := m.peers[addr]; p != nil {
		p.vitals = v
		p.vitalsAt = time.Now()
	}
}

// Live returns the live node set, self always included, sorted by the map
// iteration-free path the ring construction re-sorts anyway.
func (m *Membership) Live() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := []string{m.self}
	for _, p := range m.peers {
		if p.live {
			out = append(out, p.addr)
		}
	}
	return out
}

// LiveCount reports how many fleet members (self included) are live.
func (m *Membership) LiveCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 1
	for _, p := range m.peers {
		if p.live {
			n++
		}
	}
	return n
}

// Snapshot returns every member's status (self first, then peers sorted by
// address at the caller's leisure — the fleet handler sorts).
func (m *Membership) Snapshot() []PeerStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := []PeerStatus{{Addr: m.self, Self: true, Live: true}}
	for _, p := range m.peers {
		st := PeerStatus{
			Addr: p.addr, Live: p.live, Fails: p.fails, Oks: p.oks,
			Probes: p.probes, LastErr: p.lastErr,
		}
		if !p.lastSeen.IsZero() {
			st.LastSeen = p.lastSeen.UTC().Format(time.RFC3339Nano)
		}
		out = append(out, st)
	}
	return out
}
