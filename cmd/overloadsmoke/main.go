// Command overloadsmoke is an end-to-end drill for the daemon's adaptive
// overload control, wired to `make overload-smoke`. It builds rqpd, boots it
// with deliberately low admission limits (-max-runs 1), builds one session,
// then fires a burst of concurrent sweep requests past the limit and asserts
// the contract under overload: at least one request completes (the server
// keeps doing work), at least one is shed with 429 carrying a Retry-After
// header (clients get backpressure, not queueing collapse), the scrape
// exposes the rqp_inflight / rqp_shed_total / rqp_breaker_state families
// with a non-zero shed count, and the goroutine count settles back to its
// pre-burst baseline (no leaked request handlers). Exits non-zero on any
// failure.
package main

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/smoke"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("overloadsmoke: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
	log.Print("PASS")
}

func run() error {
	dir, err := os.MkdirTemp("", "overloadsmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	bin := filepath.Join(dir, "rqpd")
	if err := smoke.BuildDaemon(bin); err != nil {
		return err
	}

	addr, err := smoke.FreeAddr()
	if err != nil {
		return err
	}
	stop, err := smoke.StartDaemon(bin, "-addr", addr,
		"-max-runs", "1", "-session-max-runs", "1", "-max-builds", "2")
	if err != nil {
		return err
	}
	defer stop()

	base := "http://" + addr
	if err := smoke.Await(base+"/v1/healthz", 10*time.Second); err != nil {
		return fmt.Errorf("daemon never became healthy: %w", err)
	}

	// A denser grid plus exhaustive sweeps makes every request heavy enough
	// that the burst genuinely overlaps in the server.
	id, err := smoke.CreateSession(base, `{"query":"2D_EQ","gridRes":16}`)
	if err != nil {
		return err
	}
	if err := smoke.AwaitReady(base, id, 60*time.Second); err != nil {
		return err
	}

	baseline, err := smoke.Goroutines(base)
	if err != nil {
		return err
	}

	// The burst: with a run ceiling of 1, concurrent sweeps past the limit
	// must be shed, not queued.
	const burst = 24
	sweepURL := base + "/v1/sessions/" + id + "/sweep?strategy=spillbound&max=0"
	var (
		mu            sync.Mutex
		okCount       int
		shedCount     int
		missingHeader int
		unexpected    []string
	)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(sweepURL)
			if err != nil {
				mu.Lock()
				unexpected = append(unexpected, err.Error())
				mu.Unlock()
				return
			}
			defer resp.Body.Close()
			io.Copy(io.Discard, resp.Body)
			mu.Lock()
			defer mu.Unlock()
			switch resp.StatusCode {
			case http.StatusOK:
				okCount++
			case http.StatusTooManyRequests:
				shedCount++
				if resp.Header.Get("Retry-After") == "" {
					missingHeader++
				}
			default:
				unexpected = append(unexpected, fmt.Sprintf("status %d", resp.StatusCode))
			}
		}()
	}
	wg.Wait()
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
	fams, err := smoke.Scrape(base)
	if err != nil {
		return err
	}
	for _, want := range []string{"rqp_inflight", "rqp_shed_total", "rqp_breaker_state"} {
		if _, ok := fams[want]; !ok {
			return fmt.Errorf("exposition missing family %s", want)
		}
	}
	shed := 0.0
	for _, s := range fams["rqp_shed_total"].Samples {
		if s.Labels["class"] == "run" {
			shed += s.Value
		}
	}
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
