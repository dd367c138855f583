// Package smoke is the shared toolkit of the end-to-end daemon drills
// (cmd/drill): build and boot rqpd singly or as a fleet, poll with a
// deadline, drive the /v1 session lifecycle, check a response's trace
// identity, scrape the metrics exposition, and check goroutine hygiene
// after load. Every helper is a plain function returning errors — the
// drills decide what is fatal.
package smoke

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Poll drives fn immediately and then every interval until it reports done,
// returns a permanent error, or the deadline passes. The last attempt runs
// at the deadline itself (the sleep never overshoots it), so a condition
// that becomes true late still passes instead of flaking on sleep phase.
func Poll(what string, timeout, interval time.Duration, fn func() (bool, error)) error {
	deadline := time.Now().Add(timeout)
	for {
		done, err := fn()
		if err != nil {
			return err
		}
		if done {
			return nil
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return fmt.Errorf("timeout after %v waiting for %s", timeout, what)
		}
		if remaining < interval {
			interval = remaining
		}
		time.Sleep(interval)
	}
}

// freeAddrs reserves n distinct loopback TCP addresses. Every listener is
// held until all n are bound and only then released, so the kernel cannot
// hand the same port out twice within one call.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer l.Close()
		addrs = append(addrs, l.Addr().String())
	}
	return addrs, nil
}

// BuildDaemon compiles ./cmd/rqpd into binPath.
func BuildDaemon(binPath string) error {
	if out, err := exec.Command("go", "build", "-o", binPath, "./cmd/rqpd").CombinedOutput(); err != nil {
		return fmt.Errorf("build rqpd: %v\n%s", err, out)
	}
	return nil
}

// Daemon is a started rqpd process listening on Addr. Most drills only ever
// Stop() it (graceful SIGTERM); the fleet chaos drill also Kill()s an owner
// mid-run — SIGKILL, no shutdown hooks, the honest crash.
type Daemon struct {
	Addr    string
	cmd     *exec.Cmd
	stopped bool
}

// Base is the daemon's HTTP base URL.
func (d *Daemon) Base() string { return "http://" + d.Addr }

// start boots a built rqpd on addr with the given extra flags, forwarding
// its output to stderr. It does not wait for the daemon to serve.
func start(binPath, addr string, flags ...string) (*Daemon, error) {
	cmd := exec.Command(binPath, append([]string{"-addr", addr}, flags...)...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &Daemon{Addr: addr, cmd: cmd}, nil
}

// Boot starts rqpd on a free loopback address with the given flags and
// waits up to 10s for /v1/healthz to answer 200. A daemon that never comes
// up is stopped before the error returns.
func Boot(binPath string, flags ...string) (*Daemon, error) {
	addrs, err := freeAddrs(1)
	if err != nil {
		return nil, err
	}
	d, err := start(binPath, addrs[0], flags...)
	if err != nil {
		return nil, err
	}
	if err := Await(d.Base()+"/v1/healthz", 10*time.Second); err != nil {
		d.Stop()
		return nil, fmt.Errorf("daemon never became healthy: %w", err)
	}
	return d, nil
}

// BootFleet starts n rqpd nodes peered with each other (-peers lists all
// of them) plus the given flags, waits up to 10s for each to answer
// /v1/fleet/health, and then up to 10s more for every node to see all n
// peers live. Placement against a still-forming ring can hash a session to
// a different owner than the formed ring reports, so drills place nothing
// before this returns. On error every started node is stopped.
func BootFleet(binPath string, n int, flags ...string) ([]*Daemon, error) {
	addrs, err := freeAddrs(n)
	if err != nil {
		return nil, err
	}
	flags = append([]string{"-peers", strings.Join(addrs, ",")}, flags...)
	nodes := make([]*Daemon, 0, n)
	fail := func(err error) ([]*Daemon, error) {
		for _, d := range nodes {
			d.Stop()
		}
		return nil, err
	}
	for _, a := range addrs {
		d, err := start(binPath, a, flags...)
		if err != nil {
			return fail(err)
		}
		nodes = append(nodes, d)
	}
	for _, d := range nodes {
		if err := Await(d.Base()+"/v1/fleet/health", 10*time.Second); err != nil {
			return fail(err)
		}
	}
	for _, d := range nodes {
		if err := AwaitLive(d.Addr, n, 10*time.Second); err != nil {
			return fail(err)
		}
	}
	return nodes, nil
}

// Stop terminates the daemon gracefully (SIGTERM with a kill fallback after
// 10s). Idempotent.
func (d *Daemon) Stop() {
	if d.stopped {
		return
	}
	d.stopped = true
	d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { d.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-done
	}
}

// Kill SIGKILLs the daemon immediately — no graceful shutdown, in-flight
// runs die at whatever checkpoint they last persisted. Idempotent.
func (d *Daemon) Kill() {
	if d.stopped {
		return
	}
	d.stopped = true
	d.cmd.Process.Kill()
	d.cmd.Wait()
}

// Await polls url until it answers 200 (connection errors mean "booting" and
// keep the poll alive).
func Await(url string, timeout time.Duration) error {
	return Poll(url, timeout, 50*time.Millisecond, func() (bool, error) {
		resp, err := http.Get(url)
		if err != nil {
			return false, nil
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK, nil
	})
}

// AwaitLive polls addr's membership snapshot until it reports want live
// peers (errors keep the poll alive: a partitioned or booting node may not
// answer yet).
func AwaitLive(addr string, want int, timeout time.Duration) error {
	return Poll(fmt.Sprintf("%s to see %d live peers", addr, want), timeout, 50*time.Millisecond, func() (bool, error) {
		var doc struct {
			Live int `json:"live"`
		}
		if err := GetJSON("http://"+addr+"/v1/fleet/peers", &doc); err != nil {
			return false, nil
		}
		return doc.Live == want, nil
	})
}

// CreateSession POSTs the create payload with the given extra request
// headers and returns the accepted session ID and the response headers
// (the build is still asynchronous — pair with AwaitReady).
func CreateSession(base, body string, hdr map[string]string) (string, http.Header, error) {
	status, h, b, err := Do(http.MethodPost, base+"/v1/sessions", body, hdr)
	if err != nil {
		return "", nil, err
	}
	if status != http.StatusAccepted && status != http.StatusCreated {
		return "", nil, fmt.Errorf("create session: status %d: %s", status, b)
	}
	var doc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(b, &doc); err != nil || doc.ID == "" {
		return "", nil, fmt.Errorf("create session: bad response: %s", b)
	}
	return doc.ID, h, nil
}

// AwaitReady polls the session resource until its status is ready; a failed
// build is a permanent error.
func AwaitReady(base, id string, timeout time.Duration) error {
	return Poll("session "+id+" ready", timeout, 50*time.Millisecond, func() (bool, error) {
		var doc struct {
			Status     string `json:"status"`
			BuildError string `json:"buildError"`
		}
		if err := GetJSON(base+"/v1/sessions/"+id, &doc); err != nil {
			return false, err
		}
		switch doc.Status {
		case "ready":
			return true, nil
		case "failed":
			return false, fmt.Errorf("session build failed: %s", doc.BuildError)
		}
		return false, nil
	})
}

// Get fetches url and requires a 200.
func Get(url string) error {
	_, err := expectOK(http.MethodGet, url, "")
	return err
}

// Post sends a JSON payload and requires a 200.
func Post(url, body string) error {
	_, err := expectOK(http.MethodPost, url, body)
	return err
}

// GetJSON fetches url, requires a 200, and decodes the body into v.
func GetJSON(url string, v any) error {
	b, err := expectOK(http.MethodGet, url, "")
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

func expectOK(method, url, body string) ([]byte, error) {
	status, _, b, err := Do(method, url, body, nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, url, status, b)
	}
	return b, nil
}

// Do issues one request with an optional JSON body and extra request
// headers, and returns the status, the response headers, and the response
// body. The headers matter to drills that assert on the correlation
// contract (Traceparent, X-Request-ID, Retry-After); latency is the
// caller's business so retries never hide in the measurement.
func Do(method, url, body string, hdr map[string]string) (int, http.Header, []byte, error) {
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, b, err
}

// CheckCorrelated enforces the correlation contract on one response: every
// response, sheds and breaker rejections included, must carry a parseable
// W3C Traceparent and a non-empty X-Request-ID.
func CheckCorrelated(h http.Header) error {
	if _, err := trace.Parse(h.Get("Traceparent")); err != nil || h.Get("X-Request-ID") == "" {
		return fmt.Errorf("response lacks trace identity (Traceparent=%q, X-Request-ID=%q)",
			h.Get("Traceparent"), h.Get("X-Request-ID"))
	}
	return nil
}

// Flavor is a /v1/metrics exposition format, named by the Content-Type
// prefix the daemon answers it with.
type Flavor string

const (
	// Prometheus is the classic text exposition, served by default.
	Prometheus Flavor = "text/plain"
	// OpenMetrics additionally carries histogram bucket exemplars; the
	// daemon serves it when the scrape's Accept header asks for it.
	OpenMetrics Flavor = "application/openmetrics-text"
)

// Scrape fetches /v1/metrics in the given flavor, requires the matching
// Content-Type, and returns the parsed families.
func Scrape(base string, flavor Flavor) (map[string]*telemetry.ParsedFamily, error) {
	var hdr map[string]string
	if flavor == OpenMetrics {
		hdr = map[string]string{"Accept": string(OpenMetrics)}
	}
	status, h, body, err := Do(http.MethodGet, base+"/v1/metrics", "", hdr)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("metrics status %d", status)
	}
	if ct := h.Get("Content-Type"); !strings.HasPrefix(ct, string(flavor)) {
		return nil, fmt.Errorf("%s scrape: content type %q", flavor, ct)
	}
	fams, err := telemetry.ParseProm(bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("%s exposition does not parse: %w", flavor, err)
	}
	return fams, nil
}

// Sum adds up the samples of family name, keeping only those whose label
// equals value when label is non-empty. A missing family sums to 0.
func Sum(fams map[string]*telemetry.ParsedFamily, name, label, value string) float64 {
	fam, ok := fams[name]
	if !ok {
		return 0
	}
	var sum float64
	for _, s := range fam.Samples {
		if label != "" && s.Labels[label] != value {
			continue
		}
		sum += s.Value
	}
	return sum
}

// AwaitGoroutineSettle polls /v1/metrics until the daemon's goroutine
// count drops back to within slack of the pre-drill baseline, returning the
// last observed count either way. Every drill that stresses the daemon ends
// with this check: handlers that survive their request are leaks, and a leak
// under a one-shot drill is a flood under production load.
func AwaitGoroutineSettle(base string, baseline, slack int, timeout time.Duration) (int, error) {
	final := -1
	err := Poll("goroutines back to baseline", timeout, 100*time.Millisecond, func() (bool, error) {
		n, err := Goroutines(base)
		if err != nil {
			return false, err
		}
		final = n
		return n <= baseline+slack, nil
	})
	return final, err
}

// Goroutines reads the live goroutine count, the rqp_goroutines gauge of
// /v1/metrics.
func Goroutines(base string) (int, error) {
	fams, err := Scrape(base, Prometheus)
	if err != nil {
		return 0, err
	}
	n := int(Sum(fams, "rqp_goroutines", "", ""))
	if n <= 0 {
		return 0, fmt.Errorf("metrics reported %d goroutines", n)
	}
	return n, nil
}
