package main

import (
	"encoding/json"
	"fmt"
	"log"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/smoke"
	"repro/internal/telemetry"
)

// The replay's fixed parameters, the values `make replay-smoke` always ran.
const (
	replaySeed       = 1
	replayRate       = 20
	replayDuration   = 30 * time.Second
	replayBurst      = 16
	breakerThreshold = 3
	replayReport     = "replay-report.json"
)

var replayMix = []string{"spillbound"}

// replayDrill is the live traffic replay (`make replay-smoke`). It boots
// rqpd with deliberately tight admission limits and drives a seeded
// open-loop arrival process of mixed traffic — clean runs, scenario-tagged
// runs from the error-regime suite (adversarial-1 forces ESS escapes,
// regret-correlated-1 forces watchdog aborts), sweeps, and session builds
// — followed by a concentrated sweep burst past the run ceiling (shed
// drill) and a run of consecutive CHAOS_FAIL session builds
// (circuit-breaker drill).
//
// It measures per-class p50/p95/p99 latency, status counts, a per-class
// phase breakdown derived from each run response's typed event stream
// (exec vs spill vs degraded cost units, checkpoint and retry counts), the
// per-class distribution of advertised Retry-After values, and a guardrail
// census (watchdog aborts, ESS escapes, sheds, breaker rejections),
// cross-checks the census against the daemon's own /v1/metrics exposition,
// and writes the machine-readable report to replay-report.json. Every
// response — successes and sheds alike — must carry a valid W3C
// Traceparent and an X-Request-ID; violations are counted. The drill fails
// unless every guardrail class fired at least once, p99 latency was
// recorded for the run class, zero traceparent violations were seen, and
// the goroutine count settled back to its pre-replay baseline (no leaked
// handlers).
func replayDrill(bin, _ string) error {
	// Tight limits so the replay itself pushes the daemon into its
	// guardrails: a breaker that opens within one drill, and a cooldown long
	// enough that the circuit is still open at the final scrape.
	d, id, baseline, err := bootOverloaded(bin,
		"-breaker-threshold", fmt.Sprint(breakerThreshold), "-breaker-cooldown", "5m")
	if err != nil {
		return err
	}
	defer d.Stop()
	base := d.Base()
	rec := newRecorder()

	// Phase 1 — seeded open-loop mixed traffic: an arrival fires regardless
	// of how many requests are still in flight (that is what makes overload
	// real).
	log.Printf("mixed traffic: %v at %d req/s against %s", replayDuration, replayRate, id)
	var wg sync.WaitGroup
	start := time.Now()
	for _, a := range arrivals() {
		time.Sleep(time.Until(start.Add(a.at)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			fire(base, id, a.ev, rec)
		}()
	}
	wg.Wait()

	// Phase 2 — shed drill: admission control must shed the burst's excess
	// with 429, not queue it.
	log.Printf("shed drill: %d concurrent exhaustive sweeps", replayBurst)
	for _, s := range sweepBurst(base, id, replayBurst) {
		rec.fired("sweep:burst", "", s, runReply{})
	}

	// Phase 3 — breaker drill.
	log.Printf("breaker drill: %d consecutive failing builds", breakerThreshold)
	if err := breakerDrill(base, rec); err != nil {
		return err
	}

	// Settle: the burst's handlers must wind down, not linger.
	final, settleErr := smoke.AwaitGoroutineSettle(base, baseline, 5, 15*time.Second)
	if final < 0 {
		final = baseline
	}
	daemon, err := scrapeDaemon(base)
	if err != nil {
		return err
	}
	classes, strategies, guard := rec.snapshot()
	guard.BreakerOpened = daemon.BreakerState > 0
	rep := &report{
		Seed: replaySeed, DurationS: replayDuration.Seconds(), Rate: replayRate, Mix: replayMix,
		Classes: classes, Strategies: strategies, Guardrails: guard, Daemon: daemon,
		Goroutines: leakCheck{Baseline: baseline, Final: final, Settled: settleErr == nil},
	}
	log.Printf("census: %d watchdog aborts, %d escapes, %d sheds, %d breaker rejections, %d degraded fallbacks",
		guard.WatchdogAborts, guard.ESSEscapes, guard.Sheds, guard.BreakerRejections, guard.DegradedFallbacks)
	payload, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(replayReport, append(payload, '\n'), 0o644); err != nil {
		return err
	}
	log.Printf("wrote %s (%d bytes)", replayReport, len(payload)+1)
	if problems := rep.problems(); len(problems) > 0 {
		return fmt.Errorf("%s", strings.Join(problems, "; "))
	}
	return nil
}

// report is the machine-readable replay result.
type report struct {
	Seed      int64                  `json:"seed"`
	DurationS float64                `json:"duration_s"`
	Rate      float64                `json:"rate"`
	Mix       []string               `json:"strategy_mix"`
	Classes   map[string]*classStats `json:"classes"`
	// Strategies breaks the clean-run class out per strategy of the mix, so
	// the tail-latency cost of each selection/discovery strategy is visible
	// side by side under identical arrivals.
	Strategies map[string]*classStats `json:"strategies"`
	// Guardrails is the census observed on the wire.
	Guardrails guardrails `json:"guardrails"`
	// Daemon holds the cross-check scraped from /v1/metrics after the drills.
	Daemon     daemonView `json:"daemon"`
	Goroutines leakCheck  `json:"goroutines"`
}

type guardrails struct {
	WatchdogAborts    int  `json:"watchdog_aborts"`
	ESSEscapes        int  `json:"ess_escapes"`
	Sheds             int  `json:"sheds"`
	BreakerRejections int  `json:"breaker_rejections"`
	BreakerOpened     bool `json:"breaker_opened"`
	// DegradedFallbacks counts run replies flagged degraded: the strategy
	// failed past its retries and the run fell back to the native plan.
	DegradedFallbacks int `json:"degraded_fallbacks"`
	// TraceparentViolations counts responses — sheds and breaker rejections
	// included — that failed smoke.CheckCorrelated.
	TraceparentViolations int `json:"traceparent_violations"`
	UnexpectedFailures    int `json:"unexpected_failures"`
}

type daemonView struct {
	ShedTotal    float64            `json:"rqp_shed_total"`
	BreakerState float64            `json:"rqp_breaker_state"`
	Guard        map[string]float64 `json:"rqp_guard_interventions_total"`
}

type leakCheck struct {
	Baseline int  `json:"baseline"`
	Final    int  `json:"final"`
	Settled  bool `json:"settled"`
}

// distSummary is a small sample distribution (seconds) — used for the
// per-class Retry-After values the daemon advertised, making the backoff it
// asked of its clients visible per traffic class.
type distSummary struct {
	Count int     `json:"count"`
	Min   float64 `json:"min"`
	P50   float64 `json:"p50"`
	Max   float64 `json:"max"`
}

func summarize(samples []float64) *distSummary {
	if len(samples) == 0 {
		return nil
	}
	sort.Float64s(samples)
	return &distSummary{
		Count: len(samples),
		Min:   samples[0],
		P50:   percentile(samples, 0.50),
		Max:   samples[len(samples)-1],
	}
}

// classStats aggregates one traffic class.
type classStats struct {
	Count    int            `json:"count"`
	Statuses map[string]int `json:"statuses"`
	P50Ms    float64        `json:"p50_ms"`
	P95Ms    float64        `json:"p95_ms"`
	P99Ms    float64        `json:"p99_ms"`
	// Phases is the class's run-phase breakdown, present once at least one
	// completed run contributed an event stream.
	Phases *phaseStats `json:"phases,omitempty"`
	// RetryAfterS summarizes the Retry-After values (seconds) shed responses
	// of this class advertised — the per-class backoff distribution.
	RetryAfterS *distSummary `json:"retry_after_s,omitempty"`

	lat []float64
	ra  []float64
}

// phaseStats is the per-class phase breakdown derived from run responses'
// typed event streams: where the class's budget went (regular executions,
// spill executions, the native fallback), and how often the resilience and
// durability layers fired. Costs are in the abstract cost-ledger units the
// paper's budgets are denominated in, not wall time.
type phaseStats struct {
	Runs        int     `json:"runs"`
	ExecCost    float64 `json:"exec_cost"`
	SpillCost   float64 `json:"spill_cost"`
	DegradeCost float64 `json:"degrade_cost"`
	Checkpoints int     `json:"checkpoints"`
	Retries     int     `json:"retries"`
	Guard       int     `json:"guard_interventions"`
}

// fold adds one run's event stream to the breakdown.
func (p *phaseStats) fold(events []telemetry.Event) {
	p.Runs++
	for _, ev := range events {
		switch ev.Kind {
		case telemetry.PlanExec:
			p.ExecCost += ev.Spent
		case telemetry.SpillExec:
			p.SpillCost += ev.Spent
		case telemetry.Degrade:
			p.DegradeCost += ev.Spent
		case telemetry.CheckpointSave:
			p.Checkpoints++
		case telemetry.Retry:
			p.Retries++
		case telemetry.BudgetAbort, telemetry.ESSEscape:
			p.Guard++
		}
	}
}

// problems lists every violation (empty = pass). The required guardrail
// classes are the acceptance bar: watchdog abort, ESS escape, shed,
// breaker.
func (r *report) problems() []string {
	var out []string
	if r.Guardrails.WatchdogAborts < 1 {
		out = append(out, "no watchdog abort (budget_abort) observed")
	}
	if r.Guardrails.ESSEscapes < 1 {
		out = append(out, "no ESS escape (ess_escape) observed")
	}
	if r.Guardrails.Sheds < 1 {
		out = append(out, "nothing was shed (429) despite the burst past -max-runs")
	}
	if !r.Guardrails.BreakerOpened || r.Guardrails.BreakerRejections < 1 {
		out = append(out, "the build circuit breaker never opened/rejected")
	}
	if r.Guardrails.UnexpectedFailures > 0 {
		out = append(out, fmt.Sprintf("%d requests failed outside the overload/guard contract", r.Guardrails.UnexpectedFailures))
	}
	if r.Guardrails.TraceparentViolations > 0 {
		out = append(out, fmt.Sprintf("%d responses without a valid Traceparent/X-Request-ID", r.Guardrails.TraceparentViolations))
	}
	if cs := r.Classes["run"]; cs == nil || cs.P99Ms <= 0 {
		out = append(out, "no p99 latency recorded for the run class")
	}
	if !r.Goroutines.Settled {
		out = append(out, fmt.Sprintf("goroutines leaked: baseline %d, final %d", r.Goroutines.Baseline, r.Goroutines.Final))
	}
	return out
}

// recorder accumulates per-class outcomes under concurrency.
type recorder struct {
	mu         sync.Mutex
	classes    map[string]*classStats
	strategies map[string]*classStats
	guard      guardrails
}

func newRecorder() *recorder {
	return &recorder{classes: map[string]*classStats{}, strategies: map[string]*classStats{}}
}

// statsFor returns the stats of key in m, creating them. Callers hold rec.mu.
func statsFor(m map[string]*classStats, key string) *classStats {
	cs := m[key]
	if cs == nil {
		cs = &classStats{Statuses: map[string]int{}}
		m[key] = cs
	}
	return cs
}

// runReply is the part of a run response the census reads; non-run traffic
// and failed runs observe the zero value.
type runReply struct {
	GuardVerdict string            `json:"guardVerdict"`
	Degraded     bool              `json:"degraded"`
	Events       []telemetry.Event `json:"events"`
}

// observe records one finished request: its class, the strategy it ran (""
// for non-run traffic), coarse outcome label, wire latency, and the run
// reply: its event stream is folded into the class's phase breakdown, its
// guard verdict and degraded flag into the guardrail census.
func (rec *recorder) observe(class, strategy, outcome string, latency time.Duration, reply runReply) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	record := func(cs *classStats) {
		cs.Count++
		cs.Statuses[outcome]++
		cs.lat = append(cs.lat, float64(latency)/float64(time.Millisecond))
		if len(reply.Events) > 0 {
			if cs.Phases == nil {
				cs.Phases = &phaseStats{}
			}
			cs.Phases.fold(reply.Events)
		}
	}
	record(statsFor(rec.classes, class))
	if strategy != "" {
		record(statsFor(rec.strategies, strategy))
	}
	switch outcome {
	case "shed":
		rec.guard.Sheds++
	case "breaker":
		rec.guard.BreakerRejections++
	case "error":
		rec.guard.UnexpectedFailures++
	}
	switch reply.GuardVerdict {
	case "budget_abort":
		rec.guard.WatchdogAborts++
	case "ess_escape":
		rec.guard.ESSEscapes++
	}
	if reply.Degraded {
		rec.guard.DegradedFallbacks++
	}
}

// observeTraceparent counts a response that fails the correlation contract.
func (rec *recorder) observeTraceparent(h http.Header) {
	if smoke.CheckCorrelated(h) == nil {
		return
	}
	rec.mu.Lock()
	rec.guard.TraceparentViolations++
	rec.mu.Unlock()
}

// fired records one traffic request. Contract outcomes: ok (200), shed
// (429), breaker (503), timeout (504); anything else is an unexpected
// failure. Every response's correlation headers are checked regardless of
// outcome, and a shed or breaker response's Retry-After joins its class's
// backoff distribution.
func (rec *recorder) fired(class, strategy string, s shot, reply runReply) {
	outcome := "error"
	if s.err == nil {
		rec.observeTraceparent(s.header)
		switch s.status {
		case http.StatusOK:
			outcome = "ok"
		case http.StatusTooManyRequests:
			outcome = "shed"
		case http.StatusServiceUnavailable:
			outcome = "breaker"
		case http.StatusGatewayTimeout:
			outcome = "timeout"
		}
	}
	if v, err := strconv.Atoi(s.header.Get("Retry-After")); err == nil && (outcome == "shed" || outcome == "breaker") {
		rec.mu.Lock()
		cs := statsFor(rec.classes, class)
		cs.ra = append(cs.ra, float64(v))
		rec.mu.Unlock()
	}
	rec.observe(class, strategy, outcome, s.latency, reply)
}

func (rec *recorder) snapshot() (classes, strategies map[string]*classStats, guard guardrails) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for _, m := range []map[string]*classStats{rec.classes, rec.strategies} {
		for _, cs := range m {
			sort.Float64s(cs.lat)
			cs.P50Ms = percentile(cs.lat, 0.50)
			cs.P95Ms = percentile(cs.lat, 0.95)
			cs.P99Ms = percentile(cs.lat, 0.99)
			cs.RetryAfterS = summarize(cs.ra)
		}
	}
	return rec.classes, rec.strategies, rec.guard
}

// percentile reads the q-quantile of a sorted sample (nearest-rank).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// trafficEvent is one arrival of the open-loop process, fully determined by
// the trace seed before it is fired.
type trafficEvent struct {
	class    string
	strategy string // clean-run strategy ("" = not a clean run)
	body     string // run payload ("" = not a run)
	sweepMax int
	build    bool
}

// arrival is a trafficEvent and its offset from the start of the phase.
type arrival struct {
	at time.Duration
	ev trafficEvent
}

// arrivals draws the whole mixed-traffic phase from replaySeed: a Poisson
// process at replayRate over replayDuration, each arrival an exponential
// gap and then a pick, in that order.
func arrivals() []arrival {
	rng := rand.New(rand.NewSource(replaySeed))
	var out []arrival
	var at time.Duration
	for {
		at += time.Duration(rng.ExpFloat64() / replayRate * float64(time.Second))
		if at > replayDuration {
			return out
		}
		out = append(out, arrival{at, pick(rng, replaySeed, replayMix)})
	}
}

// pick draws the next event from the class mix: 40% clean runs (strategy
// drawn uniformly from mix), 15% adversarial scenario runs, 15%
// regret-correlated scenario runs, 20% sweeps, 10% session builds. The
// scenario drills stay pinned to spillbound so the guardrail census is
// independent of the mix under test. The strategy draw consumes a random
// number even for a one-strategy mix, and the pinned arrival stream
// (testdata/replay_arrivals.json) depends on it.
func pick(rng *rand.Rand, seed int64, mix []string) trafficEvent {
	// Truth locations log-uniform over the selectivity range, away from the
	// exact grid edges.
	truth := func() string {
		x := math.Pow(10, -5*rng.Float64()-0.1)
		y := math.Pow(10, -5*rng.Float64()-0.1)
		return fmt.Sprintf("[%.6g,%.6g]", x, y)
	}
	r := rng.Float64()
	switch {
	case r < 0.40:
		st := mix[rng.Intn(len(mix))]
		return trafficEvent{class: "run", strategy: st,
			body: fmt.Sprintf(`{"strategy":%q,"truth":%s}`, st, truth())}
	case r < 0.55:
		return trafficEvent{class: "run:adversarial",
			body: fmt.Sprintf(`{"strategy":"spillbound","truth":%s,"scenario":"adversarial-1","scenarioSeed":%d}`, truth(), seed)}
	case r < 0.70:
		return trafficEvent{class: "run:correlated",
			body: fmt.Sprintf(`{"strategy":"spillbound","truth":%s,"scenario":"regret-correlated-1","scenarioSeed":%d}`, truth(), seed)}
	case r < 0.90:
		return trafficEvent{class: "sweep", sweepMax: 16}
	default:
		return trafficEvent{class: "build", build: true}
	}
}

// fire executes one traffic event against the anchor session and records
// its outcome.
func fire(base, sessionID string, ev trafficEvent, rec *recorder) {
	var (
		s     shot
		reply runReply
	)
	switch {
	case ev.build:
		// A tiny real build: exercises the build limiter and keeps the
		// breaker's consecutive-failure count at zero during mixed traffic.
		s = do(http.MethodPost, base+"/v1/sessions", `{"query":"2D_EQ","gridRes":4}`)
		if s.status == http.StatusAccepted || s.status == http.StatusCreated {
			s.status = http.StatusOK
		}
	case ev.body != "":
		s = do(http.MethodPost, base+"/v1/sessions/"+sessionID+"/run", ev.body)
		if s.status == http.StatusOK && json.Unmarshal(s.body, &reply) != nil {
			reply = runReply{}
		}
	default:
		s = sweep(base, sessionID, ev.sweepMax)
	}
	rec.fired(ev.class, ev.strategy, s, reply)
}

// breakerDrill runs breakerThreshold consecutive CHAOS_FAIL builds (each
// awaited to its failed terminal state so the failures are consecutive in
// the breaker's ledger) and then asserts the circuit rejects the next
// create with 503.
func breakerDrill(base string, rec *recorder) error {
	for i := 0; i < breakerThreshold; i++ {
		start := time.Now()
		id, h, err := smoke.CreateSession(base, `{"query":"CHAOS_FAIL"}`, nil)
		if err != nil {
			return fmt.Errorf("chaos build %d (breaker opened early?): %w", i+1, err)
		}
		rec.observeTraceparent(h)
		if err := smoke.Poll("chaos session "+id+" failed", 10*time.Second, 50*time.Millisecond, func() (bool, error) {
			var doc struct {
				Status string `json:"status"`
			}
			err := smoke.GetJSON(base+"/v1/sessions/"+id, &doc)
			return doc.Status == "failed", err
		}); err != nil {
			return err
		}
		rec.observe("build:chaos", "", "build_failed", time.Since(start), runReply{})
	}
	s := do(http.MethodPost, base+"/v1/sessions", `{"query":"CHAOS_FAIL"}`)
	if s.err != nil {
		return s.err
	}
	// The breaker's 503 must be correlatable too — that is the point of
	// stamping headers in the outermost middleware.
	rec.observeTraceparent(s.header)
	if s.status != http.StatusServiceUnavailable {
		rec.observe("build:chaos", "", "error", s.latency, runReply{})
		return fmt.Errorf("create after %d consecutive build failures: status %d (want 503 from the open breaker): %s",
			breakerThreshold, s.status, s.body)
	}
	rec.observe("build:chaos", "", "breaker", s.latency, runReply{})
	return nil
}

// scrapeDaemon cross-checks the census against the daemon's own exposition.
func scrapeDaemon(base string) (daemonView, error) {
	fams, err := smoke.Scrape(base, smoke.Prometheus)
	if err != nil {
		return daemonView{}, err
	}
	dv := daemonView{
		ShedTotal:    smoke.Sum(fams, "rqp_shed_total", "", ""),
		BreakerState: smoke.Sum(fams, "rqp_breaker_state", "", ""),
		Guard:        map[string]float64{},
	}
	for _, v := range []telemetry.Kind{telemetry.BudgetAbort, telemetry.ESSEscape} {
		dv.Guard[string(v)] = smoke.Sum(fams, "rqp_guard_interventions_total", "verdict", string(v))
	}
	return dv, nil
}
