// Command replay is the live traffic-replay harness, wired to
// `make replay-smoke`. It builds rqpd, boots it with deliberately tight
// admission limits, and drives a seeded open-loop arrival process of mixed
// traffic — clean runs, scenario-tagged runs from the error-regime suite
// (adversarial-1 forces ESS escapes, regret-correlated-1 forces watchdog
// aborts), sweeps, and session builds — followed by a concentrated sweep
// burst past the run ceiling (shed drill) and a run of consecutive
// CHAOS_FAIL session builds (circuit-breaker drill).
//
// The harness measures per-class p50/p95/p99 latency, status counts, a
// per-class phase breakdown derived from each run response's typed event
// stream (exec vs spill vs degraded cost units, checkpoint and retry
// counts), the per-class distribution of advertised Retry-After values, and
// a guardrail census (watchdog aborts, ESS escapes, sheds,
// breaker rejections), cross-checks the census against the daemon's own
// /v1/metrics exposition, and emits a machine-readable JSON report. Every
// response — successes and sheds alike — must carry a valid W3C
// Traceparent and an X-Request-ID; violations are counted. With -check it
// exits non-zero unless every guardrail class fired at least once, p99
// latency was recorded for the run class, zero traceparent violations were
// seen, and the goroutine count settled back to its pre-replay baseline
// (no leaked handlers).
//
// With -retries N the mixed-traffic phase turns closed-loop: an arrival
// answered with 429/503 sleeps the server's advertised Retry-After (capped
// by -retry-cap) and tries again, up to N times — measuring whether honoring
// the advertised backoff actually clears the rejection. The report's retry
// ledger counts attempts, successes-after-retry and exhausted budgets.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	repro "repro"
	"repro/internal/smoke"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

const breakerThreshold = 3

func main() {
	log.SetFlags(0)
	log.SetPrefix("replay: ")
	var (
		duration = flag.Duration("duration", 15*time.Second, "mixed-traffic phase length")
		rate     = flag.Float64("rate", 20, "mean arrival rate of the open-loop process (requests/sec)")
		seed     = flag.Int64("seed", 1, "trace seed: arrivals, class mix, truth locations, scenario suite")
		outPath  = flag.String("o", "-", "report file (- = stdout)")
		check    = flag.Bool("check", false, "assert every guardrail class fired and no goroutines leaked; exit non-zero otherwise")
		mixSpec  = flag.String("strategies", "spillbound",
			"comma-separated strategy mix for clean runs; each arrival draws one uniformly (seeded), and the report breaks tail latency out per strategy")
		targetsSpec = flag.String("targets", "",
			"comma-separated addresses of an already-running fleet (host:port,...); arrivals are sprayed across them (seeded pick per arrival) and the report breaks latency out per node. Skips booting a local daemon and the shed/breaker/leak drills — the targets' limits are the operator's, not the harness's. Incompatible with -check")
		retries = flag.Int("retries", 0,
			"closed-loop retry budget per arrival: a shed/breaker response (429/503) is retried after sleeping its advertised Retry-After, up to this many times (0 = open-loop, never retry). Every attempt is recorded separately, so sheds stay visible in the census")
		retryCap = flag.Duration("retry-cap", 2*time.Second,
			"ceiling on how long one closed-loop retry sleeps, whatever Retry-After advertises (a 5m breaker cooldown should not stall the harness)")
	)
	flag.Parse()
	mix, err := parseMix(*mixSpec)
	if err != nil {
		log.Fatal(err)
	}
	targets := splitTargets(*targetsSpec)
	if len(targets) > 0 && *check {
		log.Fatal("-check asserts the harness's own tightly-limited daemon hit every guardrail; it cannot hold against an external fleet (-targets)")
	}
	rep, err := run(*duration, *rate, *seed, mix, targets, *retries, *retryCap)
	if err != nil {
		log.Fatal(err)
	}
	payload, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	payload = append(payload, '\n')
	if *outPath == "-" {
		os.Stdout.Write(payload)
	} else if err := os.WriteFile(*outPath, payload, 0o644); err != nil {
		log.Fatal(err)
	} else {
		log.Printf("wrote %s (%d bytes)", *outPath, len(payload))
	}
	if *check {
		if problems := rep.problems(); len(problems) > 0 {
			log.Fatalf("FAIL:\n  - %s", strings.Join(problems, "\n  - "))
		}
		log.Print("PASS: all guardrail classes fired, no goroutine leak")
	}
}

// splitTargets parses the -targets list (empty → local-daemon mode).
func splitTargets(spec string) []string {
	var out []string
	for _, t := range strings.Split(spec, ",") {
		if t = strings.TrimSpace(t); t != "" {
			out = append(out, t)
		}
	}
	return out
}

// parseMix resolves the -strategies knob against the strategy registry,
// rejecting unknown names before the daemon ever boots.
func parseMix(spec string) ([]string, error) {
	var mix []string
	for _, name := range strings.Split(spec, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		if _, err := repro.ParseStrategy(name); err != nil {
			return nil, err
		}
		mix = append(mix, name)
	}
	if len(mix) == 0 {
		return nil, fmt.Errorf("empty -strategies mix")
	}
	return mix, nil
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
	// Targets echoes the -targets list; Nodes breaks every class out per
	// fleet node the arrival was fired at, so a slow or overloaded member is
	// visible in its own tail (fleet spray mode only).
	Targets []string               `json:"targets,omitempty"`
	Nodes   map[string]*classStats `json:"nodes,omitempty"`
	// Guardrails is the census observed on the wire.
	Guardrails guardrails `json:"guardrails"`
	// Retry summarizes the closed-loop retry mode (-retries > 0 only): how
	// many shed responses were retried after their advertised Retry-After,
	// and how those retries ended.
	Retry *retryStats `json:"retry,omitempty"`
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
	Crashes           int  `json:"crashes"`
	DegradedFallbacks int  `json:"degraded_fallbacks"`
	// TraceparentViolations counts responses — sheds and breaker rejections
	// included — that failed the correlation contract: a missing/invalid
	// Traceparent header or a missing X-Request-ID.
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

// retryStats is the closed-loop ledger: attempts spent on retries, arrivals
// that succeeded only because a retry was granted, and arrivals still shed
// when the budget ran out.
type retryStats struct {
	Attempts            int `json:"attempts"`
	SuccessesAfterRetry int `json:"successes_after_retry"`
	Exhausted           int `json:"exhausted"`
}

// distSummary is a small sample distribution (seconds) — used for the
// per-class Retry-After values servers advertised, making the backoff the
// fleet asked of its clients visible per traffic class.
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

// phasesOf folds one run's event stream into its phase contribution.
func phasesOf(events []telemetry.Event) phaseStats {
	var p phaseStats
	if len(events) == 0 {
		return p
	}
	p.Runs = 1
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
	return p
}

// add accumulates another run's contribution.
func (p *phaseStats) add(q phaseStats) {
	p.Runs += q.Runs
	p.ExecCost += q.ExecCost
	p.SpillCost += q.SpillCost
	p.DegradeCost += q.DegradeCost
	p.Checkpoints += q.Checkpoints
	p.Retries += q.Retries
	p.Guard += q.Guard
}

// problems lists every -check violation (empty = pass). The required
// guardrail classes are the acceptance bar: watchdog abort, ESS escape,
// shed, breaker.
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
	nodes      map[string]*classStats
	guard      guardrails
	retry      retryStats
}

func newRecorder() *recorder {
	return &recorder{classes: map[string]*classStats{}, strategies: map[string]*classStats{}, nodes: map[string]*classStats{}}
}

// observe records one finished request: its class, the strategy it ran (""
// for non-run traffic), the fleet node it was fired at ("" in local-daemon
// mode), coarse outcome label, wire latency, the run's event stream (nil for
// non-run traffic; folded into the class's phase breakdown), and (for runs)
// the guard verdict.
func (rec *recorder) observe(class, strategy, node, outcome string, latency time.Duration, events []telemetry.Event, verdict string) {
	phases := phasesOf(events)
	rec.mu.Lock()
	defer rec.mu.Unlock()
	record := func(m map[string]*classStats, key string) {
		cs := m[key]
		if cs == nil {
			cs = &classStats{Statuses: map[string]int{}}
			m[key] = cs
		}
		cs.Count++
		cs.Statuses[outcome]++
		cs.lat = append(cs.lat, float64(latency)/float64(time.Millisecond))
		if phases.Runs > 0 {
			if cs.Phases == nil {
				cs.Phases = &phaseStats{}
			}
			cs.Phases.add(phases)
		}
	}
	record(rec.classes, class)
	if strategy != "" {
		record(rec.strategies, strategy)
	}
	if node != "" {
		record(rec.nodes, node)
	}
	switch outcome {
	case "shed":
		rec.guard.Sheds++
	case "breaker":
		rec.guard.BreakerRejections++
	case "error":
		rec.guard.UnexpectedFailures++
	}
	switch verdict {
	case "budget_abort":
		rec.guard.WatchdogAborts++
	case "ess_escape":
		rec.guard.ESSEscapes++
	case "crashed":
		rec.guard.Crashes++
	}
}

// observeRetryAfter records one advertised Retry-After (seconds) under the
// class, feeding the per-class backoff distribution.
func (rec *recorder) observeRetryAfter(class string, secs float64) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	cs := rec.classes[class]
	if cs == nil {
		cs = &classStats{Statuses: map[string]int{}}
		rec.classes[class] = cs
	}
	cs.ra = append(cs.ra, secs)
}

// observeRetry tallies the closed-loop ledger for one arrival: how many
// retry attempts it spent, and how it ended.
func (rec *recorder) observeRetry(attempts int, finalOutcome string) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.retry.Attempts += attempts
	if attempts == 0 {
		return
	}
	if finalOutcome == "ok" {
		rec.retry.SuccessesAfterRetry++
	} else if finalOutcome == "shed" || finalOutcome == "breaker" {
		rec.retry.Exhausted++
	}
}

// observeTraceparent enforces the correlation contract on one response:
// every response, shed or success, must carry a parseable Traceparent and a
// non-empty X-Request-ID.
func (rec *recorder) observeTraceparent(h http.Header) {
	_, err := trace.Parse(h.Get("Traceparent"))
	if err == nil && h.Get("X-Request-ID") != "" {
		return
	}
	rec.mu.Lock()
	rec.guard.TraceparentViolations++
	rec.mu.Unlock()
}

func (rec *recorder) snapshot() (classes, strategies, nodes map[string]*classStats, guard guardrails) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for _, m := range []map[string]*classStats{rec.classes, rec.strategies, rec.nodes} {
		for _, cs := range m {
			sort.Float64s(cs.lat)
			cs.P50Ms = percentile(cs.lat, 0.50)
			cs.P95Ms = percentile(cs.lat, 0.95)
			cs.P99Ms = percentile(cs.lat, 0.99)
			cs.RetryAfterS = summarize(cs.ra)
		}
	}
	return rec.classes, rec.strategies, rec.nodes, rec.guard
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

// pick draws the next event from the class mix: 40% clean runs (strategy
// drawn uniformly from the -strategies mix), 15% adversarial scenario runs,
// 15% regret-correlated scenario runs, 20% sweeps, 10% session builds. The
// scenario drills stay pinned to spillbound so the guardrail census is
// independent of the mix under test.
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

func run(duration time.Duration, rate float64, seed int64, mix, targets []string, maxRetries int, retryCap time.Duration) (*report, error) {
	// The bases traffic is fired at: the -targets fleet as handed to us, or
	// one tightly-limited daemon the harness boots itself.
	var bases []string
	if len(targets) > 0 {
		for _, t := range targets {
			b := "http://" + t
			if err := smoke.Await(b+"/v1/healthz", 10*time.Second); err != nil {
				return nil, fmt.Errorf("daemon %s never became healthy: %w", b, err)
			}
			bases = append(bases, b)
		}
	} else {
		dir, err := os.MkdirTemp("", "replay")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)

		bin := filepath.Join(dir, "rqpd")
		if err := smoke.BuildDaemon(bin); err != nil {
			return nil, err
		}
		// Tight limits so the replay itself pushes the daemon into its guardrails:
		// a run ceiling of one that the burst must overflow, a breaker that opens
		// within one drill, and a cooldown long enough that the circuit is still
		// open at the final scrape.
		d, err := smoke.Boot(bin,
			"-max-runs", "1", "-session-max-runs", "1", "-max-builds", "2",
			"-breaker-threshold", fmt.Sprint(breakerThreshold), "-breaker-cooldown", "5m")
		if err != nil {
			return nil, err
		}
		defer d.Stop()
		bases = []string{d.Base()}
	}

	base := bases[0]
	// The anchor session every run/sweep targets: dense enough that
	// exhaustive sweeps are heavy, small enough to build quickly.
	id, _, err := smoke.CreateSession(base, `{"query":"2D_EQ","gridRes":16}`, nil)
	if err != nil {
		return nil, err
	}
	if err := smoke.AwaitReady(base, id, 120*time.Second); err != nil {
		return nil, err
	}
	baseline, err := smoke.Goroutines(base)
	if err != nil {
		return nil, err
	}

	rec := newRecorder()
	rng := rand.New(rand.NewSource(seed))

	// Phase 1 — seeded open-loop mixed traffic: arrivals are a Poisson
	// process at -rate; an arrival fires regardless of how many requests are
	// still in flight (that is what makes overload real).
	log.Printf("mixed traffic: %v at %g req/s against %s across %d node(s)", duration, rate, id, len(bases))
	var wg sync.WaitGroup
	start := time.Now()
	next := start
	for {
		next = next.Add(time.Duration(rng.ExpFloat64() / rate * float64(time.Second)))
		if next.Sub(start) > duration {
			break
		}
		// The target node is part of the seeded trace too: the same seed
		// sprays the same arrivals at the same members.
		nodeBase, node := base, ""
		if len(bases) > 1 {
			i := rng.Intn(len(bases))
			nodeBase, node = bases[i], targets[i]
		}
		time.Sleep(time.Until(next))
		ev := pick(rng, seed, mix)
		wg.Add(1)
		go func() {
			defer wg.Done()
			fire(nodeBase, node, id, ev, rec, maxRetries, retryCap)
		}()
	}
	wg.Wait()

	settled := true
	final := baseline
	if len(targets) == 0 {
		// Phase 2 — shed drill: a concentrated burst of exhaustive sweeps past
		// the run ceiling. Admission control must shed the excess with 429, not
		// queue it.
		log.Print("shed drill: 16 concurrent exhaustive sweeps")
		for i := 0; i < 16; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// The shed drill stays open-loop regardless of -retries: it
				// exists to overflow the run ceiling, not to recover from it.
				fire(base, "", id, trafficEvent{class: "sweep:burst", sweepMax: 0}, rec, 0, retryCap)
			}()
		}
		wg.Wait()

		// Phase 3 — breaker drill: CHAOS_FAIL builds fail on contact; after
		// breakerThreshold consecutive failures the next create must be rejected
		// 503 by the open circuit.
		log.Printf("breaker drill: %d consecutive failing builds", breakerThreshold)
		if err := breakerDrill(base, rec); err != nil {
			return nil, err
		}

		// Settle: the burst's handlers must wind down, not linger.
		n, settleErr := smoke.AwaitGoroutineSettle(base, baseline, 5, 15*time.Second)
		if n >= 0 {
			final = n
		}
		settled = settleErr == nil
	}

	// Scrape every node: the fleet-wide census is the sum of the members'.
	daemon := &daemonView{Guard: map[string]float64{}}
	for _, b := range bases {
		dv, err := scrapeDaemon(b)
		if err != nil {
			return nil, err
		}
		daemon.ShedTotal += dv.ShedTotal
		if dv.BreakerState > daemon.BreakerState {
			daemon.BreakerState = dv.BreakerState
		}
		for k, v := range dv.Guard {
			daemon.Guard[k] += v
		}
	}

	classes, strategies, nodes, guard := rec.snapshot()
	guard.BreakerOpened = daemon.BreakerState > 0
	rep := &report{
		Seed: seed, DurationS: duration.Seconds(), Rate: rate, Mix: mix, Targets: targets,
		Classes: classes, Strategies: strategies, Nodes: nodes, Guardrails: guard, Daemon: *daemon,
		Goroutines: leakCheck{Baseline: baseline, Final: final, Settled: settled},
	}
	if maxRetries > 0 {
		rec.mu.Lock()
		retry := rec.retry
		rec.mu.Unlock()
		rep.Retry = &retry
	}
	log.Printf("census: %d watchdog aborts, %d escapes, %d sheds, %d breaker rejections, %d crashes",
		guard.WatchdogAborts, guard.ESSEscapes, guard.Sheds, guard.BreakerRejections, guard.Crashes)
	return rep, nil
}

// fire executes one traffic event against base (attributed to node in the
// per-node breakdown when spraying a fleet) and records its outcome. In
// closed-loop mode (maxRetries > 0) a shed or breaker response is retried
// after sleeping the server's advertised Retry-After (capped at retryCap),
// up to the budget. Every attempt is recorded separately — a retried shed is
// still a shed in the census; the retry ledger tracks how the loop ended.
func fire(base, node, sessionID string, ev trafficEvent, rec *recorder, maxRetries int, retryCap time.Duration) {
	attempts := 0
	for {
		outcome, headers := fireOnce(base, node, sessionID, ev, rec)
		shed := outcome == "shed" || outcome == "breaker"
		raSecs := -1.0
		if headers != nil {
			if v, err := strconv.Atoi(headers.Get("Retry-After")); err == nil {
				raSecs = float64(v)
				if shed {
					rec.observeRetryAfter(ev.class, raSecs)
				}
			}
		}
		if !shed || attempts >= maxRetries {
			rec.observeRetry(attempts, outcome)
			return
		}
		attempts++
		// Honor the advertised backoff, bounded: the harness must not stall
		// minutes on a breaker cooldown to prove it listened.
		sleep := retryCap
		if raSecs >= 0 {
			if d := time.Duration(raSecs * float64(time.Second)); d < sleep {
				sleep = d
			}
		}
		time.Sleep(sleep)
	}
}

// fireOnce performs a single attempt of one traffic event. Contract
// outcomes: ok (200), shed (429), breaker (503), timeout (504); anything
// else is an unexpected failure. Every response's correlation headers are
// checked regardless of outcome.
func fireOnce(base, node, sessionID string, ev trafficEvent, rec *recorder) (string, http.Header) {
	var (
		status  int
		headers http.Header
		verdict string
		events  []telemetry.Event
		err     error
	)
	start := time.Now()
	switch {
	case ev.build:
		// A tiny real build: exercises the build limiter and keeps the
		// breaker's consecutive-failure count at zero during mixed traffic.
		status, headers, _, err = smoke.Do(http.MethodPost, base+"/v1/sessions", `{"query":"2D_EQ","gridRes":4}`, nil)
		if status == http.StatusAccepted || status == http.StatusCreated {
			status = http.StatusOK
		}
	case ev.body != "":
		var body []byte
		status, headers, body, err = smoke.Do(http.MethodPost, base+"/v1/sessions/"+sessionID+"/run", ev.body, nil)
		if status == http.StatusOK {
			var doc struct {
				GuardVerdict string            `json:"guardVerdict"`
				Events       []telemetry.Event `json:"events"`
			}
			if json.Unmarshal(body, &doc) == nil {
				verdict = doc.GuardVerdict
				events = doc.Events
			}
		}
	default:
		status, headers, _, err = smoke.Do(http.MethodGet,
			fmt.Sprintf("%s/v1/sessions/%s/sweep?strategy=spillbound&max=%d", base, sessionID, ev.sweepMax), "", nil)
	}
	latency := time.Since(start)
	if err == nil {
		rec.observeTraceparent(headers)
	}
	outcome := "error"
	switch {
	case err != nil:
	case status == http.StatusOK:
		outcome = "ok"
	case status == http.StatusTooManyRequests:
		outcome = "shed"
	case status == http.StatusServiceUnavailable:
		outcome = "breaker"
	case status == http.StatusGatewayTimeout:
		outcome = "timeout"
	}
	rec.observe(ev.class, ev.strategy, node, outcome, latency, events, verdict)
	return outcome, headers
}

// breakerDrill runs breakerThreshold consecutive CHAOS_FAIL builds (each
// awaited to its failed terminal state so the failures are consecutive in
// the breaker's ledger) and then asserts the circuit rejects the next
// create with 503.
func breakerDrill(base string, rec *recorder) error {
	for i := 0; i < breakerThreshold; i++ {
		start := time.Now()
		status, headers, body, err := smoke.Do(http.MethodPost, base+"/v1/sessions", `{"query":"CHAOS_FAIL"}`, nil)
		if err != nil {
			return fmt.Errorf("chaos build %d: %w", i+1, err)
		}
		rec.observeTraceparent(headers)
		if status != http.StatusAccepted {
			return fmt.Errorf("chaos build %d: status %d: %s (breaker opened early?)", i+1, status, body)
		}
		var doc struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &doc); err != nil || doc.ID == "" {
			return fmt.Errorf("chaos build %d: bad create response: %s", i+1, body)
		}
		if err := smoke.Poll("chaos session "+doc.ID+" failed", 10*time.Second, 50*time.Millisecond, func() (bool, error) {
			st, err := sessionStatus(base, doc.ID)
			return st == "failed", err
		}); err != nil {
			return err
		}
		rec.observe("build:chaos", "", "", "build_failed", time.Since(start), nil, "")
	}
	start := time.Now()
	status, headers, body, err := smoke.Do(http.MethodPost, base+"/v1/sessions", `{"query":"CHAOS_FAIL"}`, nil)
	if err != nil {
		return err
	}
	// The breaker's 503 must be correlatable too — that is the point of
	// stamping headers in the outermost middleware.
	rec.observeTraceparent(headers)
	latency := time.Since(start)
	if status != http.StatusServiceUnavailable {
		rec.observe("build:chaos", "", "", "error", latency, nil, "")
		return fmt.Errorf("create after %d consecutive build failures: status %d (want 503 from the open breaker): %s",
			breakerThreshold, status, body)
	}
	rec.observe("build:chaos", "", "", "breaker", latency, nil, "")
	return nil
}

func sessionStatus(base, id string) (string, error) {
	resp, err := http.Get(base + "/v1/sessions/" + id)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var doc struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return "", err
	}
	return doc.Status, nil
}

// scrapeDaemon cross-checks the census against the daemon's own exposition.
func scrapeDaemon(base string) (*daemonView, error) {
	fams, err := smoke.Scrape(base, smoke.Prometheus)
	if err != nil {
		return nil, err
	}
	out := &daemonView{Guard: map[string]float64{}}
	if f := fams["rqp_shed_total"]; f != nil {
		for _, s := range f.Samples {
			out.ShedTotal += s.Value
		}
	}
	if f := fams["rqp_breaker_state"]; f != nil && len(f.Samples) > 0 {
		out.BreakerState = f.Samples[0].Value
	}
	if f := fams["rqp_guard_interventions_total"]; f != nil {
		for _, s := range f.Samples {
			out.Guard[s.Labels["verdict"]] += s.Value
		}
	}
	return out, nil
}
