package main

import (
	"encoding/json"
	"fmt"
	"log"
	"math"
	"net/http"
	"path/filepath"
	"strings"
	"time"

	"repro"
	"repro/internal/runstate"
	"repro/internal/smoke"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

const (
	fleetHeartbeat = 150 * time.Millisecond
	// downBudget is the generous ceiling for mark-down detection: the
	// configured hysteresis is 2 consecutive failed probes at a 150ms
	// cadence (~300ms), so 5s of slack absorbs scheduler noise without
	// masking a broken detector.
	downBudget = 5 * time.Second
)

// fleetDrill is the multi-node chaos drill (`make fleet-smoke`): boot a
// 3-node rqpd fleet over a shared data directory, place a durable session
// through a non-owner (exercising the transparent proxy), crash the owner
// mid-run (checkpoint-crash injection followed by SIGKILL — the honest
// "kill -9"), and assert the fabric's failover contract:
//
//   - the survivors mark the dead owner down within the heartbeat budget and
//     re-route its sessions;
//   - the next hash owner adopts the orphaned session and resumes the
//     interrupted durable run to completion;
//   - the resumed run replays an event suffix identical to an uninterrupted
//     golden run, under the SAME trace ID as the first incarnation;
//   - a zombie (the fenced former owner) writing a stale-epoch checkpoint is
//     rejected terminally by epoch fencing;
//   - a partitioned peer (heartbeat-drop fault injection) is marked down and
//     routed around, then marked back up when the partition heals;
//   - every response along the way carries a correlatable trace identity
//     (Traceparent + X-Request-ID), fleet metrics account for the drill
//     (failovers, proxied requests, hedges, live peers), and no goroutines
//     leak on the survivors.
func fleetDrill(bin, data string) error {
	nodes, err := smoke.BootFleet(bin, 3,
		"-data", data,
		"-heartbeat-interval", fleetHeartbeat.String(),
		"-heartbeat-down", "2", "-heartbeat-up", "2",
		// An aggressive hedge delay so the drill's proxied reads
		// actually exercise the hedging path.
		"-hedge-delay", "1ms",
		"-session-ttl", "0", "-trace-sample", "0",
	)
	if err != nil {
		return err
	}
	addrs := make([]string, len(nodes))
	daemons := make(map[string]*smoke.Daemon, len(nodes))
	for i, d := range nodes {
		defer d.Stop()
		addrs[i] = d.Addr
		daemons[d.Addr] = d
	}
	log.Printf("fleet of %d live: %s", len(addrs), strings.Join(addrs, ","))

	// Goroutine baselines for the post-drill leak check.
	baseline := make(map[string]int, len(addrs))
	for _, a := range addrs {
		if baseline[a], err = smoke.Goroutines("http://" + a); err != nil {
			return err
		}
	}

	// --- Place a durable session through a non-owner. ----------------------
	// The fleet mints the ID and pins it on the hash owner; creating it via
	// an arbitrary node exercises the create-proxy path.
	id, hdr, err := smoke.CreateSession("http://"+addrs[0], `{"query":"2D_EQ","gridRes":16}`, nil)
	if err != nil {
		return err
	}
	if err := smoke.CheckCorrelated(hdr); err != nil {
		return fmt.Errorf("create session response: %w", err)
	}
	owner, err := routeOwner(addrs[0], id)
	if err != nil {
		return err
	}
	if o2, err := routeOwner(addrs[1], id); err != nil {
		return err
	} else if o2 != owner {
		return fmt.Errorf("ring views disagree: %s says owner %s, %s says %s", addrs[0], owner, addrs[1], o2)
	}
	front := otherThan(addrs, owner)[0]
	log.Printf("session %s owned by %s, fronting via %s", id, owner, front)
	if err := smoke.AwaitReady("http://"+front, id, 60*time.Second); err != nil {
		return err
	}
	// The status reads above often answer inside the 1ms hedge delay, so
	// they may never hedge. A proxied exhaustive sweep always outlasts it:
	// the front must launch a hedge, which the metrics check below counts.
	if err := smoke.Get("http://" + front + "/v1/sessions/" + id + "/sweep?strategy=spillbound&max=0"); err != nil {
		return fmt.Errorf("proxied sweep: %w", err)
	}

	// --- Golden run: the uninterrupted reference. --------------------------
	runURL := "http://" + front + "/v1/sessions/" + id + "/run"
	truth := `[0.42,0.17]`
	status, hdr, body, err := smoke.Do(http.MethodPost, runURL,
		`{"strategy":"spillbound","truth":`+truth+`,"durable":true,"runId":"golden"}`, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("golden run: status %d: %s", status, body)
	}
	if err := smoke.CheckCorrelated(hdr); err != nil {
		return fmt.Errorf("golden run response: %w", err)
	}
	var golden runDoc
	if err := json.Unmarshal(body, &golden); err != nil {
		return fmt.Errorf("golden run: %w", err)
	}
	log.Printf("golden run: %d events, totalCost %.4f", len(golden.Events), golden.TotalCost)

	// --- Victim run: crash the owner mid-run. ------------------------------
	// The scenario's checkpoint-crash knob interrupts the durable run at its
	// first checkpoint (leaving a resumable snapshot), and the SIGKILL that
	// follows guarantees the owner can never resume it itself — failover or
	// nothing.
	seed, err := crashSeed()
	if err != nil {
		return err
	}
	victim := trace.New()
	status, hdr, body, err = smoke.Do(http.MethodPost, runURL,
		fmt.Sprintf(`{"strategy":"spillbound","truth":%s,"durable":true,"runId":"victim","scenario":"adversarial-4","scenarioSeed":%d}`, truth, seed),
		map[string]string{"Traceparent": victim.Header()})
	if err != nil {
		return err
	}
	if status != http.StatusBadRequest || !strings.Contains(string(body), "crash") {
		return fmt.Errorf("victim run: want 400 with injected crash, got %d: %s", status, body)
	}
	victimID := victim.TraceID
	if got := hdr.Get("X-Request-ID"); got != victimID {
		return fmt.Errorf("victim run: X-Request-ID %q does not echo the request traceparent %q", got, victimID)
	}
	if err := awaitRunStatus(front, id, "victim", "interrupted", 5*time.Second); err != nil {
		return err
	}
	log.Printf("victim run interrupted at a checkpoint (trace %s); SIGKILLing owner %s", victimID, owner)
	daemons[owner].Kill()

	// --- Failover: detection, re-routing, adoption, resume. ----------------
	survivors := otherThan(addrs, owner)
	start := time.Now()
	if err := smoke.AwaitLive(survivors[0], len(survivors), downBudget); err != nil {
		return fmt.Errorf("owner death not detected: %w", err)
	}
	log.Printf("owner marked down after %v", time.Since(start).Round(time.Millisecond))

	var newOwner string
	err = smoke.Poll("session re-routed off the dead owner", downBudget, 50*time.Millisecond, func() (bool, error) {
		o, err := routeOwner(survivors[0], id)
		if err != nil {
			return false, nil
		}
		newOwner = o
		return o != owner, nil
	})
	if err != nil {
		return err
	}
	log.Printf("session re-routed to %s", newOwner)

	// The adopter rehydrates the session and resumes the interrupted run;
	// GET .../runs/victim serves the full resumed result once it completes.
	var resumed runDoc
	err = smoke.Poll("victim run resumed on "+newOwner, 60*time.Second, 100*time.Millisecond, func() (bool, error) {
		var doc runDoc
		if smoke.GetJSON("http://"+survivors[0]+"/v1/sessions/"+id+"/runs/victim", &doc) != nil {
			return false, nil
		}
		if !doc.Resumed || len(doc.Events) == 0 {
			return false, nil
		}
		resumed = doc
		return true, nil
	})
	if err != nil {
		return err
	}
	log.Printf("victim resumed: %d events, totalCost %.4f, trace %s", len(resumed.Events), resumed.TotalCost, resumed.TraceID)

	// --- The failover contract. --------------------------------------------
	if resumed.TraceID != victimID {
		return fmt.Errorf("resumed run trace %s != first-incarnation trace %s (one trace must span incarnations)", resumed.TraceID, victimID)
	}
	if _, ok := findKind(resumed.Events, "run_resume"); !ok {
		return fmt.Errorf("resumed run carries no run_resume event")
	}
	fo, ok := findKind(resumed.Events, "failover")
	if !ok {
		return fmt.Errorf("resumed run carries no failover marker event")
	}
	if fo.Mode != newOwner {
		return fmt.Errorf("failover marker names adopter %q, want %q", fo.Mode, newOwner)
	}
	if err := compareSuffix(golden, resumed); err != nil {
		return err
	}
	log.Print("resumed suffix identical to golden; one trace across incarnations")

	// --- Zombie fencing. ----------------------------------------------------
	// Impersonate the dead owner: open the session's run store directly and
	// write a checkpoint stamped with the pre-failover epoch. Adoption
	// advanced the on-disk epoch, so the write must be rejected.
	st2, err := runstate.NewStore(filepath.Join(data, id))
	if err != nil {
		return err
	}
	epoch, node, err := st2.LoadEpoch()
	if err != nil {
		return err
	}
	if epoch < 1 || node != newOwner {
		return fmt.Errorf("adoption did not advance the fence: epoch %d owned by %q, want >=1 owned by %q", epoch, node, newOwner)
	}
	zerr := st2.SaveRun(&runstate.RunState{RunID: "zombie", Algorithm: "spillbound", Epoch: epoch - 1})
	if !runstate.IsFenced(zerr) {
		return fmt.Errorf("zombie checkpoint (epoch %d < %d) not fenced: err=%v", epoch-1, epoch, zerr)
	}
	log.Printf("zombie checkpoint fenced: %v", zerr)

	// --- Partition drill. ---------------------------------------------------
	// Drop a survivor's inbound heartbeats: it keeps serving, but its peers
	// must mark it down and route around it — then mark it back up when the
	// partition heals.
	partitioned, observer := survivors[0], survivors[1]
	if partitioned == newOwner {
		partitioned, observer = survivors[1], survivors[0]
	}
	if err := smoke.Post("http://"+partitioned+"/v1/fleet/faults", `{"dropHeartbeats":true}`); err != nil {
		return err
	}
	start = time.Now()
	if err := smoke.AwaitLive(observer, 1, downBudget); err != nil {
		return fmt.Errorf("partitioned peer not marked down: %w", err)
	}
	log.Printf("partitioned peer %s marked down after %v", partitioned, time.Since(start).Round(time.Millisecond))
	if o, err := routeOwner(observer, id); err != nil || o != observer {
		return fmt.Errorf("partitioned fleet routes session to %q (err %v), want sole survivor %s", o, err, observer)
	}
	if err := smoke.Post("http://"+partitioned+"/v1/fleet/faults", `{"dropHeartbeats":false}`); err != nil {
		return err
	}
	if err := smoke.AwaitLive(observer, 2, downBudget); err != nil {
		return fmt.Errorf("healed peer not marked back up: %w", err)
	}
	log.Printf("partition healed, %s marked back up", partitioned)

	// --- Metrics account for the drill. -------------------------------------
	var failovers, proxyOK, hedges float64
	for _, a := range survivors {
		fams, err := smoke.Scrape("http://"+a, smoke.Prometheus)
		if err != nil {
			return err
		}
		if g := smoke.Sum(fams, "rqp_peers_live", "", ""); g != 2 {
			return fmt.Errorf("%s rqp_peers_live = %v, want 2", a, g)
		}
		failovers += smoke.Sum(fams, "rqp_failovers_total", "", "")
		proxyOK += smoke.Sum(fams, "rqp_proxy_requests_total", "outcome", "ok")
		hedges += smoke.Sum(fams, "rqp_hedges_total", "", "")
	}
	if failovers < 1 {
		return fmt.Errorf("rqp_failovers_total = %v across survivors, want >= 1", failovers)
	}
	if proxyOK < 1 {
		return fmt.Errorf("rqp_proxy_requests_total{outcome=ok} = %v across survivors, want >= 1", proxyOK)
	}
	if hedges < 1 {
		return fmt.Errorf("rqp_hedges_total = %v across survivors, want >= 1 (hedge delay is 1ms)", hedges)
	}
	log.Printf("metrics: failovers %v, proxied ok %v, hedges %v", failovers, proxyOK, hedges)

	// --- The fleet membership timeline is a trace. --------------------------
	tbody, err := fleetTrace(newOwner)
	if err != nil {
		return err
	}
	if !strings.Contains(string(tbody), "peer_state") {
		return fmt.Errorf("fleet trace on %s has no peer_state spans: %s", newOwner, tbody)
	}

	// --- Goroutine hygiene on the survivors. --------------------------------
	for _, a := range survivors {
		if _, err := smoke.AwaitGoroutineSettle("http://"+a, baseline[a], 10, 10*time.Second); err != nil {
			return fmt.Errorf("goroutine leak on %s: %w", a, err)
		}
	}
	return nil
}

// fleetTrace fetches addr's fleet membership trace (the peer_state and
// brownout_stage timeline) as JSON, requiring both it and its flamegraph
// render to answer 200.
func fleetTrace(addr string) ([]byte, error) {
	var peers struct {
		FleetTraceID string `json:"fleetTraceId"`
	}
	if err := smoke.GetJSON("http://"+addr+"/v1/fleet/peers", &peers); err != nil {
		return nil, err
	}
	url := "http://" + addr + "/v1/runs/" + peers.FleetTraceID + "/trace"
	status, _, body, err := smoke.Do(http.MethodGet, url, "", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("fleet trace %s: status %d, want 200: %.200s", peers.FleetTraceID, status, body)
	}
	if err := smoke.Get(url + "?format=svg"); err != nil {
		return nil, fmt.Errorf("fleet flamegraph: %w", err)
	}
	return body, nil
}

// runDoc is the drill's view of a run response (a subset of the server's
// runResponse).
type runDoc struct {
	TotalCost float64           `json:"totalCost"`
	Events    []telemetry.Event `json:"events"`
	Resumed   bool              `json:"resumed"`
	TraceID   string            `json:"traceId"`
}

// crashSeed finds a scenario seed whose adversarial-4 crashes at the FIRST
// checkpoint — resolved in-process through the same scenario lookup the
// daemon uses, so the drill never guesses at fault knobs.
func crashSeed() (int64, error) {
	for seed := int64(1); seed < 256; seed++ {
		if sc, ok := repro.ScenarioByName(seed, "adversarial-4"); ok && sc.Faults.CrashAtCheckpoint == 1 {
			return seed, nil
		}
	}
	return 0, fmt.Errorf("no seed in [1,256) gives adversarial-4 a first-checkpoint crash")
}

// compareSuffix asserts the resumed incarnation replayed exactly the golden
// run's tail: its execution events must match the last len(resumed) golden
// execution events field-for-field, and the cross-incarnation total cost
// must equal the uninterrupted one.
func compareSuffix(golden, resumed runDoc) error {
	g := execEvents(golden.Events)
	r := execEvents(resumed.Events)
	if len(r) == 0 || len(r) > len(g) {
		return fmt.Errorf("resumed run has %d execution events, golden %d", len(r), len(g))
	}
	off := len(g) - len(r)
	for i, re := range r {
		ge := g[off+i]
		if re.Kind != ge.Kind || re.Contour != ge.Contour || re.Dim != ge.Dim ||
			re.PlanID != ge.PlanID || re.Completed != ge.Completed ||
			relDiff(re.Spent, ge.Spent) > 1e-9 {
			return fmt.Errorf("resumed suffix diverges at step %d: got %+v, golden %+v", i, re, ge)
		}
	}
	if relDiff(resumed.TotalCost, golden.TotalCost) > 1e-9 {
		return fmt.Errorf("resumed totalCost %v != golden %v", resumed.TotalCost, golden.TotalCost)
	}
	return nil
}

// execEvents filters a run stream down to its deterministic execution steps
// (contour entries, plan/spill executions, prunes) — the replay-identity
// alphabet; resume markers and budget bookkeeping are incarnation-specific.
func execEvents(evs []telemetry.Event) []telemetry.Event {
	var out []telemetry.Event
	for _, ev := range evs {
		switch ev.Kind {
		case telemetry.ContourEnter, telemetry.PlanExec, telemetry.SpillExec, telemetry.HalfSpacePrune:
			out = append(out, ev)
		}
	}
	return out
}

func findKind(evs []telemetry.Event, kind string) (telemetry.Event, bool) {
	for _, ev := range evs {
		if string(ev.Kind) == kind {
			return ev, true
		}
	}
	return telemetry.Event{}, false
}

func relDiff(a, b float64) float64 {
	den := math.Max(math.Abs(a), math.Abs(b))
	if a == b || den == 0 {
		return 0
	}
	return math.Abs(a-b) / den
}

// routeOwner asks addr which node owns key under its current ring view.
func routeOwner(addr, key string) (string, error) {
	var doc struct {
		Owner string `json:"owner"`
	}
	if err := smoke.GetJSON("http://"+addr+"/v1/fleet/route?key="+key, &doc); err != nil {
		return "", err
	}
	if doc.Owner == "" {
		return "", fmt.Errorf("%s reports no owner for %s", addr, key)
	}
	return doc.Owner, nil
}

// otherThan returns addrs without skip, in order.
func otherThan(addrs []string, skip string) []string {
	var out []string
	for _, a := range addrs {
		if a != skip {
			out = append(out, a)
		}
	}
	return out
}

// awaitRunStatus polls a durable run resource until it reports the wanted
// status.
func awaitRunStatus(addr, session, runID, want string, timeout time.Duration) error {
	url := "http://" + addr + "/v1/sessions/" + session + "/runs/" + runID
	return smoke.Poll("run "+runID+" to be "+want, timeout, 50*time.Millisecond, func() (bool, error) {
		var doc struct {
			Status string `json:"status"`
		}
		if smoke.GetJSON(url, &doc) != nil {
			return false, nil
		}
		return doc.Status == want, nil
	})
}
