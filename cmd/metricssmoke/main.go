// Command metricssmoke is an end-to-end smoke test for the daemon's
// observability and durability surfaces, wired to `make metrics-smoke`. It
// builds rqpd, boots it on a local port with a data directory, drives one
// session through build → durable run → sweep, scrapes GET /v1/metrics, and
// validates the Prometheus text exposition with telemetry.ParseProm
// (cumulative buckets, terminal +Inf) plus the presence and non-zeroness of
// the key families. It then stops the daemon (SIGTERM, exercising the
// graceful path), reboots it on the same -data directory, and verifies the
// recovered session serves its durable run resource over /v1 — the restart
// drill for `rqpd -data`. Exits non-zero on any failure.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/smoke"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("metricssmoke: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
	log.Print("PASS")
}

func run() error {
	dir, err := os.MkdirTemp("", "metricssmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	bin := filepath.Join(dir, "rqpd")
	if err := smoke.BuildDaemon(bin); err != nil {
		return err
	}

	dataDir := filepath.Join(dir, "data")
	addr, err := smoke.FreeAddr()
	if err != nil {
		return err
	}
	stop, err := smoke.StartDaemon(bin, "-addr", addr, "-data", dataDir)
	if err != nil {
		return err
	}
	defer stop()

	base := "http://" + addr
	if err := smoke.Await(base+"/v1/healthz", 10*time.Second); err != nil {
		return fmt.Errorf("daemon never became healthy: %w", err)
	}

	// One full workflow so the run/build/sweep metrics are non-zero. The run
	// is durable so the checkpoint counter ticks and the restart drill below
	// has a run resource to recover.
	id, err := smoke.CreateSession(base, `{"query":"2D_EQ","gridRes":6}`)
	if err != nil {
		return err
	}
	if err := smoke.AwaitReady(base, id, 60*time.Second); err != nil {
		return err
	}
	if err := smoke.Post(base+"/v1/sessions/"+id+"/run",
		`{"strategy":"spillbound","truth":[0.04,0.1],"durable":true}`); err != nil {
		return fmt.Errorf("run: %w", err)
	}
	if err := smoke.Get(base + "/v1/sessions/" + id + "/sweep?strategy=spillbound&max=16"); err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	if err := checkFamilies(base); err != nil {
		return err
	}

	// Restart drill: stop the daemon (SIGTERM — graceful path), reboot on the
	// same data directory, and the recovered session must serve its durable
	// run resource over /v1 without a client-visible rebuild.
	stop()
	addr2, err := smoke.FreeAddr()
	if err != nil {
		return err
	}
	stop2, err := smoke.StartDaemon(bin, "-addr", addr2, "-data", dataDir)
	if err != nil {
		return err
	}
	defer stop2()
	base2 := "http://" + addr2
	if err := smoke.Await(base2+"/v1/healthz", 10*time.Second); err != nil {
		return fmt.Errorf("restarted daemon never became healthy: %w", err)
	}
	if err := smoke.AwaitReady(base2, id, 60*time.Second); err != nil {
		return fmt.Errorf("recovered session: %w", err)
	}
	if err := checkRunRecovered(base2, id, "r1"); err != nil {
		return err
	}
	log.Printf("restart drill: session %s and run r1 recovered from %s", id, dataDir)
	return nil
}

// checkRunRecovered asserts the restarted daemon lists the durable run as
// completed.
func checkRunRecovered(base, sid, rid string) error {
	resp, err := http.Get(base + "/v1/sessions/" + sid + "/runs/" + rid)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("recovered run %s: status %d: %s", rid, resp.StatusCode, b)
	}
	var doc struct {
		RunID  string `json:"runId"`
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return err
	}
	if doc.RunID != rid || (doc.Status != "" && doc.Status != "completed") {
		return fmt.Errorf("recovered run resource: %+v", doc)
	}
	return nil
}

// checkFamilies scrapes /v1/metrics and asserts the key families are present
// and non-zero after a run + sweep.
func checkFamilies(base string) error {
	fams, err := smoke.Scrape(base)
	if err != nil {
		return err
	}
	for _, want := range []string{
		"rqp_requests_total",
		"rqp_request_duration_seconds",
		"rqp_runs_total",
		"rqp_suboptimality",
		"rqp_session_builds_total",
		"rqp_session_build_duration_seconds",
		"rqp_sessions",
		"rqp_sessions_active",
		"rqp_checkpoints_total",
		"rqp_trace_spans_total",
		"rqp_goroutines",
		"rqp_heap_bytes",
	} {
		f, ok := fams[want]
		if !ok {
			return fmt.Errorf("exposition missing family %s", want)
		}
		total := 0.0
		for _, s := range f.Samples {
			total += s.Value
		}
		if total <= 0 {
			return fmt.Errorf("family %s is all-zero after a run + sweep", want)
		}
	}
	log.Printf("scraped %d families, exposition valid", len(fams))
	return nil
}
