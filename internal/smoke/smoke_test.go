package smoke

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestPollLastAttemptAtDeadline serves 503 until the poll's deadline has
// passed and 200 after: the capped final sleep must land one attempt at the
// deadline itself, so the late-ready condition still passes.
func TestPollLastAttemptAtDeadline(t *testing.T) {
	const timeout = 150 * time.Millisecond
	ready := time.Now().Add(timeout)
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		if time.Now().Before(ready) {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
	}))
	defer srv.Close()

	// An interval far longer than the timeout: only the capped sleep reaches
	// the deadline, an uncapped one would overshoot it by seconds.
	start := time.Now()
	err := Poll("late ready", timeout, 10*time.Second, func() (bool, error) {
		resp, err := http.Get(srv.URL)
		if err != nil {
			return false, err
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK, nil
	})
	if err != nil {
		t.Fatalf("Poll: %v", err)
	}
	if n := hits.Load(); n != 2 {
		t.Errorf("%d attempts, want 2 (immediate + at the deadline)", n)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("Poll took %v, overshooting a %v deadline", elapsed, timeout)
	}
}

// TestPollPermanentErrorStopsEarly: a 500 is turned into a permanent error
// on the first attempt, and Poll returns it without waiting out the
// deadline.
func TestPollPermanentErrorStopsEarly(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer srv.Close()

	start := time.Now()
	err := Poll("never", time.Minute, 10*time.Millisecond, func() (bool, error) {
		resp, err := http.Get(srv.URL)
		if err != nil {
			return false, err
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusInternalServerError {
			return false, fmt.Errorf("permanent: status %d", resp.StatusCode)
		}
		return false, nil
	})
	if err == nil || !strings.Contains(err.Error(), "permanent") {
		t.Fatalf("Poll = %v, want the permanent error", err)
	}
	if n := hits.Load(); n != 1 {
		t.Errorf("%d attempts after a permanent error, want 1", n)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("Poll waited %v after a permanent error", elapsed)
	}
}

func TestDoForwardsHeaders(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Echo-Traceparent", r.Header.Get("Traceparent"))
		w.Header().Set("X-Echo-Budget", r.Header.Get("X-Rqp-Retry-Budget"))
		w.Header().Set("X-Echo-Content-Type", r.Header.Get("Content-Type"))
		w.WriteHeader(http.StatusTeapot)
		fmt.Fprint(w, "body")
	}))
	defer srv.Close()

	tp := "00-bbbb0000bbbb0000bbbb0000bbbb0002-00f067aa0ba90202-01"
	status, h, b, err := Do(http.MethodPost, srv.URL, `{}`,
		map[string]string{"Traceparent": tp, "X-Rqp-Retry-Budget": "0"})
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusTeapot || string(b) != "body" {
		t.Errorf("status %d body %q", status, b)
	}
	if got := h.Get("X-Echo-Traceparent"); got != tp {
		t.Errorf("Traceparent forwarded as %q, want %q", got, tp)
	}
	if got := h.Get("X-Echo-Budget"); got != "0" {
		t.Errorf("X-Rqp-Retry-Budget forwarded as %q, want 0", got)
	}
	if got := h.Get("X-Echo-Content-Type"); got != "application/json" {
		t.Errorf("Content-Type %q, want application/json for a JSON body", got)
	}
}

// TestScrapeContentType serves a valid exposition under every Content-Type
// and requires each flavor to accept only its own.
func TestScrapeContentType(t *testing.T) {
	const exposition = "# TYPE rqp_up gauge\nrqp_up 1\n"
	for _, tc := range []struct {
		flavor Flavor
		served string
		ok     bool
	}{
		{Prometheus, "text/plain; version=0.0.4", true},
		{Prometheus, "application/openmetrics-text; version=1.0.0", false},
		{OpenMetrics, "application/openmetrics-text; version=1.0.0", true},
		{OpenMetrics, "text/plain; version=0.0.4", false},
	} {
		accepts := make(chan string, 1)
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			accepts <- r.Header.Get("Accept")
			w.Header().Set("Content-Type", tc.served)
			fmt.Fprint(w, exposition)
		}))
		fams, err := Scrape(srv.URL, tc.flavor)
		srv.Close()
		if tc.ok && (err != nil || fams["rqp_up"] == nil) {
			t.Errorf("%s scrape of %q: %v, families %v", tc.flavor, tc.served, err, fams)
		}
		if !tc.ok && (err == nil || !strings.Contains(err.Error(), "content type")) {
			t.Errorf("%s scrape of %q = %v, want a content type error", tc.flavor, tc.served, err)
		}
		if accept, wantOM := <-accepts, tc.flavor == OpenMetrics; strings.Contains(accept, string(OpenMetrics)) != wantOM {
			t.Errorf("%s scrape sent Accept %q", tc.flavor, accept)
		}
	}
}

func TestAwaitReadyFailedBuild(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/sessions/s1" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, `{"status":"failed","buildError":"injected build failure"}`)
	}))
	defer srv.Close()

	err := AwaitReady(srv.URL, "s1", time.Minute)
	if err == nil || !strings.Contains(err.Error(), "injected build failure") {
		t.Fatalf("AwaitReady = %v, want the build error", err)
	}
}

func TestFreeAddrsDistinct(t *testing.T) {
	const n = 16
	addrs, err := freeAddrs(n)
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != n {
		t.Fatalf("%d addresses, want %d", len(addrs), n)
	}
	seen := map[string]bool{}
	for _, a := range addrs {
		if seen[a] {
			t.Errorf("address %s reserved twice in %v", a, addrs)
		}
		seen[a] = true
	}
}

// TestCheckCorrelated: the trace identity must parse as a W3C traceparent
// and come with an X-Request-ID. A present but garbled Traceparent fails.
func TestCheckCorrelated(t *testing.T) {
	const tp = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	cases := []struct {
		name        string
		traceparent string
		requestID   string
		ok          bool
	}{
		{"good", tp, "4bf92f3577b34da6a3ce929d0e0e4736", true},
		{"garbled traceparent", "not-a-traceparent", "4bf92f3577b34da6a3ce929d0e0e4736", false},
		{"missing request id", tp, "", false},
		{"empty header", "", "", false},
	}
	for _, tc := range cases {
		h := http.Header{}
		if tc.traceparent != "" {
			h.Set("Traceparent", tc.traceparent)
		}
		if tc.requestID != "" {
			h.Set("X-Request-ID", tc.requestID)
		}
		if err := CheckCorrelated(h); (err == nil) != tc.ok {
			t.Errorf("%s: CheckCorrelated = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
