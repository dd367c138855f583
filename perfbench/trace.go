package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"repro"
	"repro/internal/runstate"
)

// report turns a ladder's log into per-layer metrics.
func (e *ladderEnv) report(out *outcome, sheds float64, role string) {
	l := e.log
	n := l.requests
	kind := "serve"
	if l.durable {
		kind = "durable"
	}
	note := fmt.Sprintf("%s ladder, %s", kind, role)
	if l.cut {
		out.notes = append(out.notes, fmt.Sprintf("%s stopped at the %v window cap after %d requests", note, capWindow(e.b), n))
	}
	if l.viaProxy {
		out.addLayer("fleet.proxy_us", median(l.proxy), len(l.proxy), note+": proxied − direct")
	}
	out.addLayer("server.wire_us", median(l.wire), len(l.wire), note+": direct HTTP − in-process handler")
	below := "Session.RunContext"
	if l.durable {
		below = "Session.RunDurable"
	}
	out.addLayer("server.handler_us", median(l.handler), len(l.handler), note+": in-process handler − "+below)
	out.addLayer("server.response_bytes", median(l.respBytes), len(l.respBytes), note+": run reply body")
	out.addLayer("server.sheds", sheds, 1, note+": rqp_shed_total delta")
	out.addLayer("repro.run_us", median(l.run), len(l.run), note+": RunContext − bare SweepRun − memo miss")
	for _, m := range []struct{ metric, strategy string }{
		{"spillbound.run_us", "spillbound"},
		{"bouquet.run_us", "planbouquet"},
		{"aligned.run_us", "alignedbound"},
		{"repro.selection_run_us", "minmaxregret"},
	} {
		out.addLayer(m.metric, median(l.bare[m.strategy]), len(l.bare[m.strategy]), note+": bare SweepRun of "+m.strategy)
	}
	out.addLayer("optimizer.truth_us", median(l.truth), len(l.truth), note+": private optimizer at the truth")
	out.addLayer("optimizer.repeat_ratio", float64(l.repeats)/float64(max(1, n)), n, note+": truths the server session had seen")
	out.addLayer("telemetry.events_per_run", float64(l.events)/float64(max(1, n)), n, note+": events per library run")
	out.addLayer("trace.from_run_us", median(l.fromRun), len(l.fromRun), note)
	if l.durable {
		out.addLayer("server.read_handler_us", median(l.readHandler), len(l.readHandler), note+": in-process read mix")
		out.addLayer("runstate.checkpoints_per_run", float64(l.checkpoints)/float64(max(1, n)), n, note+": checkpoint_save events per durable run")
	}
}

// saveLadder times Store.SaveRun on snapshots the workload left in the
// session's data directory, writing copies to a sibling directory on the
// same filesystem.
func saveLadder(out *outcome, tr *tracer, r *rig, note string) error {
	src, err := runstate.NewStore(r.sessionDir())
	if err != nil {
		return err
	}
	ids, err := src.Runs()
	if err != nil {
		return err
	}
	if len(ids) == 0 {
		return fmt.Errorf("save ladder: no run snapshots in %s", r.sessionDir())
	}
	ids = ids[:min(len(ids), 64)]
	dst, err := runstate.NewStore(filepath.Join(r.dir, "save-ladder"))
	if err != nil {
		return err
	}
	var saves, sizes []float64
	for _, id := range ids {
		rs, err := src.LoadRun(id)
		if err != nil {
			return err
		}
		root, done := tr.reserve("save-"+id, "snapshot "+id)
		for rep := 0; rep < 4; rep++ {
			cp := *rs
			cp.RunID = fmt.Sprintf("%s-%d", id, rep)
			var serr error
			d := tr.rung(root, "save-"+id, "runstate: Store.SaveRun", func() { serr = dst.SaveRun(&cp) })
			if serr != nil {
				done()
				return serr
			}
			saves = append(saves, us(d))
			if rep == 0 {
				st, err := os.Stat(filepath.Join(dst.Dir(), "runs", cp.RunID+".json"))
				if err != nil {
					done()
					return err
				}
				sizes = append(sizes, float64(st.Size()))
			}
		}
		done()
	}
	out.addLayer("runstate.save_us", median(saves), len(saves), note+": SaveRun (fsync) of captured snapshots")
	out.addLayer("runstate.snapshot_bytes", median(sizes), len(sizes), note+": snapshot file size")
	return nil
}

// serveLadder runs the serve ladder on a fresh fleet: perClient requests
// per client from the serve workload's request streams.
func serveLadder(b *bench, out *outcome, tr *tracer, perClient int, role string) (*ladderLog, error) {
	r, err := setupRig(b, "serve-ladder-"+role, 2, serveWarm(b))
	if err != nil {
		return nil, err
	}
	defer r.close()
	env, err := newLadderEnv(b, tr, r, false)
	if err != nil {
		return nil, err
	}
	c := newClient()
	defer c.close()
	before, err := r.scrape(c)
	if err != nil {
		return nil, err
	}
	if err := env.run("serve", nil, perClient); err != nil {
		return nil, err
	}
	after, err := r.scrape(c)
	if err != nil {
		return nil, err
	}
	env.report(out, after.sheds-before.sheds, role)
	return env.log, nil
}

// durableLadder runs the durable ladder on a fresh node, then the
// checkpoint-save ladder on the snapshots it left behind.
func durableLadder(b *bench, out *outcome, tr *tracer, perClient int, role string) (*ladderLog, error) {
	r, err := setupRig(b, "durable-ladder-"+role, 1, durableWarm(b))
	if err != nil {
		return nil, err
	}
	defer r.close()
	env, err := newLadderEnv(b, tr, r, true)
	if err != nil {
		return nil, err
	}
	// The server saw every hot truth during warm-up; give the library
	// session the same memo state.
	hot := hotSet(b.seed)
	for _, t := range hot {
		env.serverSeen.first(t)
		env.libSeen.first(t)
		if _, err := env.lib.RunContext(context.Background(), repro.Algorithm("spillbound"), repro.Location(t)); err != nil {
			return nil, err
		}
	}
	c := newClient()
	defer c.close()
	before, err := r.scrape(c)
	if err != nil {
		return nil, err
	}
	if err := env.run("durable", hot, perClient); err != nil {
		return nil, err
	}
	after, err := r.scrape(c)
	if err != nil {
		return nil, err
	}
	env.report(out, after.sheds-before.sheds, role)
	return env.log, saveLadder(out, tr, r, "durable ladder, "+role)
}

// overhead reports the traced top rung's median against the timed run's.
func overhead(out *outcome, what string, traced []float64, timed float64) {
	m := median(traced)
	out.add("tracing_overhead", "ratio", m/timed, len(traced),
		fmt.Sprintf("traced %s median %.4g ms ÷ timed median %.4g ms", what, m, timed))
}

func traceServeWorkload(b *bench, out *outcome, timedProxyP50 float64) error {
	tr := newTracer()
	l, err := serveLadder(b, out, tr, tracedServePerSecond*b.seconds, "workload")
	if err != nil {
		return err
	}
	overhead(out, "proxied run", l.top, timedProxyP50)
	if _, err := durableLadder(b, out, tr, companionRequests, "companion"); err != nil {
		return err
	}
	exp, err := loadExpected()
	if err != nil {
		return err
	}
	if _, err := offlineLadder(b, out, tr, exp, sweptQueries[:1], sweptQueries[:1], 64); err != nil {
		return err
	}
	out.spans = tr.spans
	return nil
}

func traceDurableWorkload(b *bench, out *outcome, timedRunP50 float64) error {
	tr := newTracer()
	l, err := durableLadder(b, out, tr, tracedDurablePerSecond*b.seconds, "workload")
	if err != nil {
		return err
	}
	overhead(out, "durable run", l.top, timedRunP50)
	if _, err := serveLadder(b, out, tr, companionRequests, "companion"); err != nil {
		return err
	}
	exp, err := loadExpected()
	if err != nil {
		return err
	}
	if _, err := offlineLadder(b, out, tr, exp, sweptQueries[:1], sweptQueries[:1], 64); err != nil {
		return err
	}
	out.spans = tr.spans
	return nil
}

func traceOfflineWorkload(b *bench, out *outcome, exp *expected, timedSweep float64) error {
	tr := newTracer()
	sweepSeconds, err := offlineLadder(b, out, tr, exp, offlineQueries, sweptQueries, 256)
	if err != nil {
		return err
	}
	out.add("tracing_overhead", "ratio", sweepSeconds/timedSweep, 1,
		fmt.Sprintf("traced sweeps %.4g s ÷ timed median sweep phase %.4g s", sweepSeconds, timedSweep))
	if _, err := serveLadder(b, out, tr, companionRequests, "companion"); err != nil {
		return err
	}
	if _, err := durableLadder(b, out, tr, companionRequests, "companion"); err != nil {
		return err
	}
	out.spans = tr.spans
	return nil
}
