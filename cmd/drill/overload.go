package main

import (
	"fmt"
	"log"
	"net/http"
	"sync"
	"time"

	"repro/internal/smoke"
)

// overloadDrill checks the daemon's adaptive overload control
// (`make overload-smoke`). It boots rqpd with deliberately low admission
// limits (-max-runs 1), builds one session, then fires a burst of
// concurrent sweeps past the limit and asserts the contract under
// overload: at least one request completes (the server keeps doing work),
// at least one is shed with 429 carrying a Retry-After header (clients get
// backpressure, not queueing collapse), the scrape exposes the
// rqp_inflight / rqp_shed_total / rqp_breaker_state families with a
// non-zero shed count, and the goroutine count settles back to its
// pre-burst baseline (no leaked request handlers).
func overloadDrill(bin, _ string) error {
	d, id, baseline, err := bootOverloaded(bin)
	if err != nil {
		return err
	}
	defer d.Stop()
	base := d.Base()

	// The burst: with a run ceiling of 1, concurrent sweeps past the limit
	// must be shed, not queued.
	const burst = 24
	var (
		okCount       int
		shedCount     int
		missingHeader int
		unexpected    []string
	)
	for _, s := range sweepBurst(base, id, burst) {
		switch {
		case s.err != nil:
			unexpected = append(unexpected, s.err.Error())
		case s.status == http.StatusOK:
			okCount++
		case s.status == http.StatusTooManyRequests:
			shedCount++
			if s.header.Get("Retry-After") == "" {
				missingHeader++
			}
		default:
			unexpected = append(unexpected, fmt.Sprintf("status %d", s.status))
		}
	}
	if len(unexpected) > 0 {
		return fmt.Errorf("burst produced unexpected outcomes: %v", unexpected)
	}
	if okCount < 1 {
		return fmt.Errorf("burst of %d: no request completed", burst)
	}
	if shedCount < 1 {
		return fmt.Errorf("burst of %d past a run limit of 1: nothing was shed (ok=%d)", burst, okCount)
	}
	if missingHeader > 0 {
		return fmt.Errorf("%d shed responses missing Retry-After", missingHeader)
	}
	log.Printf("burst of %d: %d completed, %d shed with Retry-After", burst, okCount, shedCount)

	if err := scrapeGuards(base, float64(shedCount)); err != nil {
		return err
	}

	// Leak check: every admitted and every shed handler must have wound down.
	// Allow a small margin for unrelated runtime goroutines.
	final, err := smoke.AwaitGoroutineSettle(base, baseline, 3, 10*time.Second)
	if err != nil {
		return err
	}
	log.Printf("goroutines settled: baseline %d, now %d", baseline, final)
	return nil
}

// scrapeGuards validates the exposition and the overload-control families.
func scrapeGuards(base string, wantShed float64) error {
	fams, err := smoke.Scrape(base, smoke.Prometheus)
	if err != nil {
		return err
	}
	for _, want := range []string{"rqp_inflight", "rqp_shed_total", "rqp_breaker_state"} {
		if _, ok := fams[want]; !ok {
			return fmt.Errorf("exposition missing family %s", want)
		}
	}
	shed := smoke.Sum(fams, "rqp_shed_total", "class", "run")
	if shed < wantShed {
		return fmt.Errorf("rqp_shed_total{class=run} = %g, want >= %g", shed, wantShed)
	}
	for _, s := range fams["rqp_breaker_state"].Samples {
		if s.Value != 0 {
			return fmt.Errorf("rqp_breaker_state = %g, want 0 (closed; no build failed)", s.Value)
		}
	}
	log.Printf("guard families present, rqp_shed_total{run} = %g, breaker closed", shed)
	return nil
}

// bootOverloaded boots rqpd with the tight admission limits of the overload
// and replay drills (a run ceiling of one that a sweep burst must overflow)
// plus flags, builds the anchor session every burst targets, and reads the
// goroutine baseline. On error the daemon is stopped.
func bootOverloaded(bin string, flags ...string) (*smoke.Daemon, string, int, error) {
	d, err := smoke.Boot(bin, append([]string{"-max-runs", "1", "-session-max-runs", "1", "-max-builds", "2"}, flags...)...)
	if err != nil {
		return nil, "", 0, err
	}
	// A denser grid plus exhaustive sweeps makes every request heavy enough
	// that the burst genuinely overlaps in the server.
	id, _, err := smoke.CreateSession(d.Base(), `{"query":"2D_EQ","gridRes":16}`, nil)
	if err == nil {
		err = smoke.AwaitReady(d.Base(), id, 60*time.Second)
	}
	var baseline int
	if err == nil {
		baseline, err = smoke.Goroutines(d.Base())
	}
	if err != nil {
		d.Stop()
		return nil, "", 0, err
	}
	return d, id, baseline, nil
}

// shot is one request's outcome and its wire latency.
type shot struct {
	status  int
	header  http.Header
	body    []byte
	latency time.Duration
	err     error
}

func do(method, url, body string) shot {
	start := time.Now()
	status, h, b, err := smoke.Do(method, url, body, nil)
	return shot{status: status, header: h, body: b, latency: time.Since(start), err: err}
}

// sweep runs a SpillBound sweep of session id over max locations (0 =
// exhaustive).
func sweep(base, id string, max int) shot {
	return do(http.MethodGet, fmt.Sprintf("%s/v1/sessions/%s/sweep?strategy=spillbound&max=%d", base, id, max), "")
}

// sweepBurst fires n concurrent exhaustive sweeps of session id and returns
// their outcomes.
func sweepBurst(base, id string, n int) []shot {
	shots := make([]shot, n)
	var wg sync.WaitGroup
	for i := range shots {
		wg.Add(1)
		go func() {
			defer wg.Done()
			shots[i] = sweep(base, id, 0)
		}()
	}
	wg.Wait()
	return shots
}
