// Command rqpd serves the robust query processing library over HTTP: build
// sessions (offline ESS construction, parallelized across -build-workers)
// asynchronously, then answer per-instance run and sweep requests with
// guarantees and traces. The API is versioned under /v1; session creation
// returns 202 Accepted and the session resource reports build progress
// until it is ready.
//
//	rqpd -addr :8080
//	curl -s localhost:8080/v1/queries
//	curl -s -XPOST localhost:8080/v1/sessions -d '{"query":"2D_EQ"}'
//	curl -s localhost:8080/v1/sessions/s1          # poll until "ready"
//	curl -s -XPOST localhost:8080/v1/sessions/s1/run \
//	     -d '{"strategy":"spillbound","truth":[0.04,0.1]}'
//
// Observability: GET /v1/metrics serves Prometheus text exposition
// (request, run, sub-optimality and session-build metrics, and the
// rqp_goroutines and rqp_heap_bytes process gauges; negotiate Accept:
// application/openmetrics-text for bucket exemplars carrying trace IDs),
// and -pprof mounts net/http/pprof under /debug/pprof/ (off by default). Every
// response carries a W3C Traceparent and X-Request-ID; span trees of
// sampled runs and builds are served at GET /v1/runs/{traceID}/trace
// (?format=svg renders a flamegraph), with retention governed by
// -trace-sample.
//
// The daemon carries the operational guard rails of internal/server: panic
// recovery, per-request timeouts (requests pass their deadline down into
// the discovery algorithms, which abort mid-contour), a session TTL with
// background eviction, slowloris-resistant socket timeouts, adaptive
// overload control (-max-runs/-max-builds AIMD limiters, -session-max-runs
// bulkheads, a -breaker-threshold build circuit breaker; excess work is shed
// with 429/503 + Retry-After), and graceful shutdown on SIGINT/SIGTERM
// (in-flight session builds are canceled).
//
// In fleet mode (-peers) nodes also gossip load vitals on their heartbeats:
// the proxy sheds traffic bound for an owner whose pressure reaches 0.9 at
// the edge, quoting the owner's own Retry-After hint, suppresses hedging
// from pressure 0.6, and caps each request at 3 wire attempts across the
// fleet (threaded via X-Rqp-Retry-Budget). A staged brownout controller,
// on in every fleet node, progressively disables hedging and trace
// sampling, then sheds expensive reads, builds, and finally runs under
// sustained fleet-wide pressure. These thresholds are fixed, and each
// heartbeat probe times out at half of -heartbeat-interval.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	reqTimeout := flag.Duration("request-timeout", 30*time.Second, "per-request deadline (0 disables)")
	sessionTTL := flag.Duration("session-ttl", 30*time.Minute, "idle session eviction TTL (0 disables)")
	maxSessions := flag.Int("max-sessions", 256, "live session cap (0 = unlimited)")
	buildWorkers := flag.Int("build-workers", 0, "ESS build parallelism per session (0 = GOMAXPROCS)")
	shutdownGrace := flag.Duration("shutdown-grace", 10*time.Second, "graceful shutdown budget")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (CPU, heap, goroutine profiles)")
	dataDir := flag.String("data", "", "durable data directory: persists sessions (ESS) and checkpointed runs; on restart, sessions are rehydrated without rebuilding and interrupted runs resume from their last checkpoint")
	maxRuns := flag.Int("max-runs", 64, "adaptive concurrent run/sweep ceiling; excess requests are shed with 429 (0 disables)")
	maxBuilds := flag.Int("max-builds", 4, "adaptive concurrent session-build ceiling (0 disables)")
	sessionMaxRuns := flag.Int("session-max-runs", 32, "per-session concurrent run bulkhead (0 disables)")
	breakerThreshold := flag.Int("breaker-threshold", 3, "consecutive session-build failures that open the build circuit breaker (0 disables)")
	breakerCooldown := flag.Duration("breaker-cooldown", 30*time.Second, "how long the open build breaker rejects before a half-open probe")
	traceSample := flag.Float64("trace-sample", 0, "head-sampling rate for span-tree retention, deterministic per trace ID (0 keeps every trace, negative keeps none)")
	peers := flag.String("peers", "", "comma-separated fleet peer addresses (host:port), this node included: enables the multi-node session fabric (consistent-hash routing, transparent proxying, any-node failover); requires -data on a shared filesystem")
	advertise := flag.String("advertise", "", "address peers reach this node at (default: -addr)")
	hbInterval := flag.Duration("heartbeat-interval", time.Second, "fleet heartbeat probe cadence")
	hbDown := flag.Int("heartbeat-down", 3, "consecutive probe failures that mark a peer down")
	hbUp := flag.Int("heartbeat-up", 2, "consecutive probe successes that mark a down peer back up")
	hedgeDelay := flag.Duration("hedge-delay", 150*time.Millisecond, "delay before hedging a slow proxied idempotent read (negative disables)")
	brownoutInterval := flag.Duration("brownout-interval", time.Second, "brownout controller tick cadence (fleet mode only; single-node rqpd never browns out)")
	flag.Parse()

	api := server.NewWithConfig(server.Config{
		RequestTimeout:      *reqTimeout,
		SessionTTL:          *sessionTTL,
		MaxSessions:         *maxSessions,
		BuildWorkers:        *buildWorkers,
		DataDir:             *dataDir,
		MaxConcurrentRuns:   *maxRuns,
		MaxConcurrentBuilds: *maxBuilds,
		SessionMaxRuns:      *sessionMaxRuns,
		BreakerThreshold:    *breakerThreshold,
		BreakerCooldown:     *breakerCooldown,
		TraceSample:         *traceSample,
		// Brownout is a fleet behavior: a single node has no gossip to steer
		// by, and the single-node API must stay byte-identical. The controller
		// is only constructed (and its loop only started) in fleet mode.
		Brownout:         *peers != "",
		BrownoutInterval: *brownoutInterval,
	})
	api.StartEviction()
	defer api.Close()

	var node *fleet.Node
	self := *advertise
	if self == "" {
		self = *addr
	}
	if *peers != "" {
		if *dataDir == "" {
			log.Fatal("rqpd: -peers requires -data (a shared durable directory is what makes any-node failover possible)")
		}
		var err error
		node, err = fleet.New(fleet.Config{
			Self:              self,
			Peers:             strings.Split(*peers, ","),
			DataDir:           *dataDir,
			HeartbeatInterval: *hbInterval,
			MarkDown:          *hbDown,
			MarkUp:            *hbUp,
			ProxyTimeout:      *reqTimeout,
			HedgeDelay:        *hedgeDelay,
		}, api)
		if err != nil {
			log.Fatalf("rqpd fleet: %v", err)
		}
		api.StartBrownout()
	} else if *dataDir != "" {
		// Single-node restart recovery. A fleet node skips it: its initial
		// orphan scan adopts exactly the sessions the ring assigns it, so a
		// rolling restart doesn't have every node rebuild every session.
		if err := api.Recover(context.Background()); err != nil {
			log.Printf("rqpd recovery: %v", err)
		}
	}

	var handler http.Handler
	if node != nil {
		handler = node.Handler()
		node.Start()
		defer node.Close()
		log.Printf("rqpd fleet member %s of %s (trace %s)", self, *peers, node.FleetTraceID())
	} else {
		handler = api.Handler()
	}
	if *pprofOn {
		// The profiling surface bypasses the API middleware (its own mux):
		// profile streams run longer than the per-request timeout allows,
		// and a panic inside pprof handlers is a process bug worth a stack.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
		log.Printf("rqpd profiling enabled at /debug/pprof/")
	}

	srv := &http.Server{
		Addr:    *addr,
		Handler: handler,
		// Socket-level guards against slow clients (slowloris): bound how
		// long headers may trickle in and how long idle keep-alives linger.
		// No blanket WriteTimeout — session builds legitimately run long;
		// the per-request middleware deadline governs handler work instead.
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       120 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("rqpd listening on %s", *addr)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
		log.Printf("rqpd shutting down (signal)")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *shutdownGrace)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			log.Printf("rqpd shutdown: %v", err)
		}
		log.Printf("rqpd stopped")
	}
}
