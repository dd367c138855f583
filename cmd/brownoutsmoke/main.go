// Command brownoutsmoke is the end-to-end fleet overload drill: boot a
// 3-node rqpd fleet with a deliberately tiny run ceiling and a fast brownout
// tick, saturate one node with a sweep storm, and assert the fleet-aware
// overload contract:
//
//   - the saturated owner's load vitals gossip to its peers on heartbeats,
//     and the peers' /v1/fleet/vitals view shows the owner at high pressure;
//   - peers shed traffic bound for the saturated owner AT THE EDGE
//     (rqp_proxy_sheds_total{reason="pressure"} grows, the 503 quotes the
//     owner's advertised Retry-After, and the owner never sees the request);
//   - hedging is suppressed while the fleet is pressured (zero new hedges
//     across the storm window) — a hedge under overload is amplification;
//   - a client retry storm with a spent X-Rqp-Retry-Budget is rejected
//     without a single cross-fleet wire attempt (bounded fan-out);
//   - the owner's staged brownout controller ascends to stage >= 2 under
//     sustained pressure and recovers to stage 0 once the storm stops, with
//     the transitions recorded as markers in the fleet trace;
//   - no goroutines leak on any node once the storm drains.
//
// Exits 0 on success; any violated expectation is fatal. Wired into CI via
// `make brownout-smoke`.
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/smoke"
	"repro/internal/telemetry"
)

const (
	hbInterval       = 100 * time.Millisecond
	brownoutInterval = 50 * time.Millisecond
	stormWorkers     = 16
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("brownoutsmoke: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
	log.Print("PASS")
}

func run() error {
	tmp, err := os.MkdirTemp("", "brownoutsmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	bin := filepath.Join(tmp, "rqpd")
	if err := smoke.BuildDaemon(bin); err != nil {
		return err
	}
	data := filepath.Join(tmp, "data")
	if err := os.MkdirAll(data, 0o755); err != nil {
		return err
	}

	// --- Boot a 3-node fleet tuned so one storm saturates one node. --------
	addrs := make([]string, 3)
	for i := range addrs {
		if addrs[i], err = smoke.FreeAddr(); err != nil {
			return err
		}
	}
	peers := strings.Join(addrs, ",")
	daemons := make(map[string]*smoke.Daemon, len(addrs))
	defer func() {
		for _, d := range daemons {
			d.Stop()
		}
	}()
	for _, a := range addrs {
		d, err := smoke.Start(bin,
			"-addr", a, "-peers", peers, "-data", data,
			"-heartbeat-interval", hbInterval.String(),
			"-heartbeat-down", "2", "-heartbeat-up", "2",
			// A run ceiling of one makes the storm's overflow immediate, and
			// the fast brownout tick makes the stage ladder observable within
			// the drill's patience.
			"-max-runs", "1", "-brownout-interval", brownoutInterval.String(),
			// An aggressive hedge delay: any proxied read that IS allowed to
			// hedge would — so a zero hedge delta is a real suppression proof.
			"-hedge-delay", "1ms",
			"-session-ttl", "0", "-trace-sample", "0",
		)
		if err != nil {
			return err
		}
		daemons[a] = d
	}
	for _, a := range addrs {
		if err := smoke.Await("http://"+a+"/v1/fleet/health", 10*time.Second); err != nil {
			return err
		}
	}
	// Every node must see the full membership before placement: a session
	// created against a still-forming ring can hash to a different owner
	// than the fully-formed ring reports, and the drill would then storm a
	// node that only proxies.
	for _, a := range addrs {
		addr := a
		err := smoke.Poll(addr+" to see the full fleet", 10*time.Second, 50*time.Millisecond, func() (bool, error) {
			var doc struct {
				Live int `json:"live"`
			}
			if err := getJSON(addr, "/v1/fleet/peers", &doc); err != nil {
				return false, nil
			}
			return doc.Live == len(addrs), nil
		})
		if err != nil {
			return err
		}
	}
	log.Printf("fleet of %d live: %s", len(addrs), peers)

	// --- Place a session; find its owner and a fronting peer. --------------
	// A denser grid makes every sweep heavy enough to span scheduler
	// preemption quanta even on a single-core machine: concurrent sweeps
	// then genuinely overlap inside the admission window, so the run
	// ceiling of one actually sheds (same reasoning as overloadsmoke).
	id, err := smoke.CreateSession("http://"+addrs[0], `{"query":"2D_EQ","gridRes":16}`)
	if err != nil {
		return err
	}
	var routeDoc struct {
		Owner string `json:"owner"`
	}
	if err := getJSON(addrs[0], "/v1/fleet/route?key="+id, &routeDoc); err != nil {
		return err
	}
	owner := routeDoc.Owner
	front := ""
	for _, a := range addrs {
		if a != owner {
			front = a
			break
		}
	}
	if owner == "" || front == "" {
		return fmt.Errorf("could not resolve owner/front for %s (owner %q)", id, owner)
	}
	log.Printf("session %s owned by %s, fronting via %s", id, owner, front)
	if err := smoke.AwaitReady("http://"+front, id, 60*time.Second); err != nil {
		return err
	}

	// Baselines AFTER setup: session-ready polling through the front already
	// proxied reads (and may legitimately have hedged them).
	baseline := make(map[string]int, len(addrs))
	for _, a := range addrs {
		if baseline[a], err = smoke.Goroutines("http://" + a); err != nil {
			return err
		}
	}
	frontFams, err := smoke.Scrape("http://" + front)
	if err != nil {
		return err
	}
	hedgeBase := counter(frontFams, "rqp_hedges_total", "")
	budgetShedBase := counter(frontFams, "rqp_proxy_sheds_total", "retry_budget")

	// --- Saturation storm: peg the owner's run class. ----------------------
	// Direct-at-owner sweeps keep its inflight at the ceiling and its shed
	// rate high, so its gossiped pressure reads 1.0 for the storm's duration.
	stop := make(chan struct{})
	var storm sync.WaitGroup
	var tallyMu sync.Mutex
	tally := map[string]int{}
	sweepURL := "http://" + owner + "/v1/sessions/" + id + "/sweep?strategy=spillbound&max=0"
	for i := 0; i < stormWorkers; i++ {
		storm.Add(1)
		go func() {
			defer storm.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(sweepURL)
				k := "err"
				if err == nil {
					k = fmt.Sprint(resp.StatusCode)
					resp.Body.Close()
				}
				tallyMu.Lock()
				tally[k]++
				tallyMu.Unlock()
			}
		}()
	}
	defer func() {
		select {
		case <-stop:
		default:
			close(stop)
		}
		storm.Wait()
	}()

	// --- Gossip: the front learns the owner is saturated. ------------------
	overloadDump := func(err error) error {
		tallyMu.Lock()
		tdump := fmt.Sprint(tally)
		tallyMu.Unlock()
		_, _, vraw, _ := smoke.Do(http.MethodGet, "http://"+front+"/v1/fleet/vitals", "")
		_, _, oraw, _ := smoke.Do(http.MethodGet, "http://"+owner+"/v1/fleet/vitals", "")
		return fmt.Errorf("%w\nstorm tally: %s\nfront vitals: %s\nowner vitals: %s", err, tdump, vraw, oraw)
	}
	err = smoke.Poll("owner pressure to gossip to the front", 30*time.Second, 50*time.Millisecond, func() (bool, error) {
		p, ok, err := peerPressure(front, owner)
		if err != nil {
			return false, nil
		}
		return ok && p >= 0.9, nil
	})
	if err != nil {
		return overloadDump(err)
	}
	log.Printf("front %s sees owner pressure >= 0.9 via gossip", front)

	// --- Brownout: the owner's stage ladder ascends under pressure. --------
	err = smoke.Poll("owner brownout stage >= 2", 30*time.Second, 50*time.Millisecond, func() (bool, error) {
		st, err := brownoutStage(owner)
		return err == nil && st >= 2, nil
	})
	if err != nil {
		return overloadDump(err)
	}
	log.Printf("owner %s browned out to stage >= 2", owner)

	// --- Edge shed: the front rejects without touching the owner. ----------
	var edgeSheds int
	for i := 0; i < 10; i++ {
		st, hdr, body, err := smoke.Do(http.MethodGet, "http://"+front+"/v1/sessions/"+id, "")
		if err != nil {
			return err
		}
		if st != http.StatusServiceUnavailable {
			continue // a probe raced a vitals refresh; the count below decides
		}
		if !strings.Contains(string(body), "owner_overloaded") {
			return fmt.Errorf("edge shed body: %s", body)
		}
		if ra, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || ra < 1 {
			return fmt.Errorf("edge shed Retry-After %q, want a positive integer", hdr.Get("Retry-After"))
		}
		edgeSheds++
	}
	if edgeSheds == 0 {
		return fmt.Errorf("no request was shed at the edge despite gossiped saturation")
	}
	fams, err := smoke.Scrape("http://" + front)
	if err != nil {
		return err
	}
	if v := counter(fams, "rqp_proxy_sheds_total", "pressure"); v < float64(edgeSheds) {
		return fmt.Errorf("rqp_proxy_sheds_total{pressure} = %v, want >= %d", v, edgeSheds)
	}
	log.Printf("edge shed %d/10 fronted reads with Retry-After", edgeSheds)

	// --- Anti-amplification: zero hedges under pressure. -------------------
	if v := counter(fams, "rqp_hedges_total", ""); v != hedgeBase {
		return fmt.Errorf("rqp_hedges_total grew %v -> %v during the storm; hedging must be suppressed under pressure", hedgeBase, v)
	}
	log.Print("no hedges launched while the fleet was pressured")

	// --- Bounded retry storm: a spent budget never crosses the fleet. ------
	const stormRequests = 20
	for i := 0; i < stormRequests; i++ {
		req, err := http.NewRequest(http.MethodGet, "http://"+front+"/v1/sessions/"+id, nil)
		if err != nil {
			return err
		}
		req.Header.Set(fleet.RetryBudgetHeader, "0")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			return fmt.Errorf("budget-0 request %d: status %d, want 429", i+1, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			return fmt.Errorf("budget-0 rejection lacks Retry-After")
		}
	}
	fams, err = smoke.Scrape("http://" + front)
	if err != nil {
		return err
	}
	if v := counter(fams, "rqp_proxy_sheds_total", "retry_budget"); v != budgetShedBase+stormRequests {
		return fmt.Errorf("rqp_proxy_sheds_total{retry_budget} = %v, want %v: every spent-budget request must be rejected before the wire",
			v, budgetShedBase+stormRequests)
	}
	log.Printf("retry storm of %d budget-0 requests rejected with zero cross-fleet attempts", stormRequests)

	// --- Recovery: stop the storm; the stage ladder descends to 0. ---------
	close(stop)
	storm.Wait()
	err = smoke.Poll("owner brownout stage back to 0", 30*time.Second, 100*time.Millisecond, func() (bool, error) {
		st, err := brownoutStage(owner)
		return err == nil && st == 0, nil
	})
	if err != nil {
		return err
	}
	log.Printf("owner recovered to stage 0")

	// The episode must be legible after the fact: the fleet trace carries the
	// stage transitions as zero-width markers.
	var peersDoc struct {
		FleetTraceID string `json:"fleetTraceId"`
	}
	if err := getJSON(owner, "/v1/fleet/peers", &peersDoc); err != nil {
		return err
	}
	st, _, tbody, err := smoke.Do(http.MethodGet, "http://"+owner+"/v1/runs/"+peersDoc.FleetTraceID+"/trace", "")
	if err != nil {
		return err
	}
	if st != http.StatusOK || !strings.Contains(string(tbody), "brownout_stage") {
		return fmt.Errorf("fleet trace %s: status %d, want 200 with brownout_stage markers: %.200s", peersDoc.FleetTraceID, st, tbody)
	}
	log.Print("fleet trace carries brownout_stage markers")

	// --- Goroutine hygiene everywhere once the storm drained. --------------
	for _, a := range addrs {
		if _, err := smoke.AwaitGoroutineSettle("http://"+a, baseline[a], 10, 20*time.Second); err != nil {
			return fmt.Errorf("goroutine leak on %s: %w", a, err)
		}
	}
	return nil
}

// peerPressure reads addr's gossiped view of peer's pressure from
// /v1/fleet/vitals; ok is false while no fresh vitals are cached.
func peerPressure(addr, peer string) (float64, bool, error) {
	var doc struct {
		Peers map[string]struct {
			Pressure float64 `json:"pressure"`
		} `json:"peers"`
	}
	if err := getJSON(addr, "/v1/fleet/vitals", &doc); err != nil {
		return 0, false, err
	}
	p, ok := doc.Peers[peer]
	return p.Pressure, ok, nil
}

// brownoutStage scrapes addr's rqp_brownout_stage gauge.
func brownoutStage(addr string) (int, error) {
	fams, err := smoke.Scrape("http://" + addr)
	if err != nil {
		return 0, err
	}
	fam, ok := fams["rqp_brownout_stage"]
	if !ok || len(fam.Samples) == 0 {
		return 0, fmt.Errorf("%s exposes no rqp_brownout_stage", addr)
	}
	return int(fam.Samples[0].Value), nil
}

// counter sums a counter family's samples, optionally filtering on a reason
// label.
func counter(fams map[string]*telemetry.ParsedFamily, name, reason string) float64 {
	fam, ok := fams[name]
	if !ok {
		return 0
	}
	var sum float64
	for _, s := range fam.Samples {
		if reason != "" && s.Labels["reason"] != reason {
			continue
		}
		sum += s.Value
	}
	return sum
}

func getJSON(addr, path string, v any) error {
	st, _, b, err := smoke.Do(http.MethodGet, "http://"+addr+path, "")
	if err != nil {
		return err
	}
	if st != http.StatusOK {
		return fmt.Errorf("GET %s%s: status %d: %s", addr, path, st, b)
	}
	return json.Unmarshal(b, v)
}
