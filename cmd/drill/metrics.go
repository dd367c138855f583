package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/smoke"
)

// metricsDrill checks the daemon's observability and durability surfaces
// (`make metrics-smoke`). It boots rqpd with a data directory, drives one
// session through build → durable run → sweep, scrapes GET /v1/metrics,
// and validates the Prometheus text exposition with telemetry.ParseProm
// (cumulative buckets, terminal +Inf) plus the presence and non-zeroness
// of the key run/build/request families. It then stops the daemon
// (SIGTERM, exercising the graceful path), reboots it on the same -data
// directory, and verifies the recovered session serves its durable run
// resource over /v1 — the restart drill for `rqpd -data`.
func metricsDrill(bin, data string) error {
	d, err := smoke.Boot(bin, "-data", data)
	if err != nil {
		return err
	}
	defer d.Stop()
	base := d.Base()

	// One full workflow so the run/build/sweep metrics are non-zero. The run
	// is durable so the checkpoint counter ticks and the restart drill below
	// has a run resource to recover.
	id, _, err := smoke.CreateSession(base, `{"query":"2D_EQ","gridRes":6}`, nil)
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
	d.Stop()
	d2, err := smoke.Boot(bin, "-data", data)
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	defer d2.Stop()
	if err := smoke.AwaitReady(d2.Base(), id, 60*time.Second); err != nil {
		return fmt.Errorf("recovered session: %w", err)
	}
	if err := checkRunRecovered(d2.Base(), id, "r1"); err != nil {
		return err
	}
	log.Printf("restart drill: session %s and run r1 recovered from %s", id, data)
	return nil
}

// checkRunRecovered asserts the restarted daemon lists the durable run as
// completed.
func checkRunRecovered(base, sid, rid string) error {
	var doc struct {
		RunID  string `json:"runId"`
		Status string `json:"status"`
	}
	if err := smoke.GetJSON(base+"/v1/sessions/"+sid+"/runs/"+rid, &doc); err != nil {
		return fmt.Errorf("recovered run %s: %w", rid, err)
	}
	if doc.RunID != rid || (doc.Status != "" && doc.Status != "completed") {
		return fmt.Errorf("recovered run resource: %+v", doc)
	}
	return nil
}

// checkFamilies scrapes /v1/metrics and asserts the key families are present
// and non-zero after a run + sweep.
func checkFamilies(base string) error {
	fams, err := smoke.Scrape(base, smoke.Prometheus)
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
		if _, ok := fams[want]; !ok {
			return fmt.Errorf("exposition missing family %s", want)
		}
		if smoke.Sum(fams, want, "", "") <= 0 {
			return fmt.Errorf("family %s is all-zero after a run + sweep", want)
		}
	}
	log.Printf("scraped %d families, exposition valid", len(fams))
	return nil
}
