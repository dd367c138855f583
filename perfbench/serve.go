package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"
)

// Window sizes. Every window sends a fixed number of requests per client,
// scaled by --seconds, so two commits do the same work: the durable server
// keeps every completed run in memory and the optimizer memo resets every
// 4096 entries, so a time-boxed window would let a faster commit end with
// a different live heap. The rates put the window near --seconds on the
// two-vCPU host the benchmark was tuned on; capWindow stops a window that
// overruns badly (the report then says so).
const (
	setupRepeats           = 3
	serveWarmup            = 200 // runs per client before the window
	serveRunsPerSecond     = 175 // per client
	durableRunsPerSecond   = 38  // per client; reads come on top
	tracedServePerSecond   = 50  // ladder requests per client (each walks every rung)
	tracedDurablePerSecond = 12
	companionRequests      = 60 // per client, for the layers a workload does not own
	capWindowFactor        = 3
	recentTraces           = 8 // a durable client reads the trace of one of its last few runs
)

func capWindow(b *bench) time.Duration {
	return time.Duration(capWindowFactor*b.seconds+10) * time.Second
}

// clientLog is one client's measurements over a window.
type clientLog struct {
	runs        series // run latency, ms
	reads       series // read latency, ms (durable)
	ok          int    // successful runs
	checkpoints int    // checkpoint_save events in durable replies
	cut         bool   // the window cap stopped this client early
}

// setupRig boots a rig, creates the session and warms it up; it is what
// setup_s measures. nodes is 2 for the serve fleet and 1 for durable.
func setupRig(b *bench, name string, nodes int, warm func(*rig) error) (*rig, error) {
	r, err := startRig(filepath.Join(b.work, name), nodes)
	if err != nil {
		return nil, err
	}
	c := newClient()
	defer c.close()
	if err := r.createSession(c); err != nil {
		r.close()
		return nil, err
	}
	if err := warm(r); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// setupRepeated sets up setupRepeats times (keeping the last rig) and
// returns the median set-up time with its samples.
func setupRepeated(b *bench, name string, nodes int, warm func(*rig) error) (*rig, []float64, error) {
	var times []float64
	var last *rig
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		r, err := setupRig(b, fmt.Sprintf("%s-setup%d", name, i), nodes, warm)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, since(t0))
		if i < setupRepeats-1 {
			r.close()
		} else {
			last = r
		}
	}
	return last, times, nil
}

// heapLiveMB is the live heap after a full collection.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// ---- serve -------------------------------------------------------------

// serveWarm sends warm-up runs through both paths (not measured).
func serveWarm(b *bench) func(*rig) error {
	return func(r *rig) error {
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				c := newClient()
				defer c.close()
				g := newGen(b.seed, "serve-warmup", i, nil)
				node := r.owner
				if i == 1 {
					node = 1 - r.owner
				}
				for k := 0; k < serveWarmup; k++ {
					body, _ := json.Marshal(g.next())
					if _, err := parseRun(c.do(http.MethodPost, r.runURL(node), body)); err != nil {
						errs[i] = fmt.Errorf("warm-up: %w", err)
						return
					}
				}
			}(i)
		}
		wg.Wait()
		if errs[0] != nil {
			return errs[0]
		}
		return errs[1]
	}
}

// serveWindow runs the closed loop: client A posts to the owner, client B
// to the other node, which proxies to the owner.
func serveWindow(b *bench, r *rig) ([2]*clientLog, float64) {
	n := serveRunsPerSecond * b.seconds
	var logs [2]*clientLog
	var wg sync.WaitGroup
	deadline := time.Now().Add(capWindow(b))
	t0 := time.Now()
	for i := 0; i < 2; i++ {
		logs[i] = &clientLog{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := newClient()
			defer c.close()
			g := newGen(b.seed, "serve", i, nil)
			node := r.owner
			if i == 1 {
				node = 1 - r.owner
			}
			lg := logs[i]
			for k := 0; k < n; k++ {
				if time.Now().After(deadline) {
					lg.cut = true
					return
				}
				req := g.next()
				body, _ := json.Marshal(req)
				s := time.Now()
				status, data, err := c.do(http.MethodPost, r.runURL(node), body)
				lg.runs.add(since(t0), ms(time.Since(s)))
				if _, err = parseRun(status, data, err); err != nil {
					err = fmt.Errorf("client %d request %d, %s at truth %v: %w", i, k, req.Strategy, req.Truth, err)
				}
				b.op(err)
				if err == nil {
					lg.ok++
				}
			}
		}(i)
	}
	wg.Wait()
	return logs, since(t0)
}

func runServe(b *bench) (*outcome, error) {
	out := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
	t0 := time.Now()
	r, setups, err := setupRepeated(b, "serve", 2, serveWarm(b))
	if err != nil {
		return nil, err
	}
	out.notes = append(out.notes, fmt.Sprintf("set-up: %d repetitions in %.2fs", setupRepeats, since(t0)))
	c := newClient()
	defer c.close()
	before, err := r.scrape(c)
	if err != nil {
		r.close()
		return nil, err
	}
	logs, elapsed := serveWindow(b, r)
	after, err := r.scrape(c)
	if err != nil {
		r.close()
		return nil, err
	}
	heap := heapLiveMB()
	r.close()

	a, p := logs[0].runs, logs[1].runs
	ok := logs[0].ok + logs[1].ok
	b.check(after.runsOK-before.runsOK == float64(ok),
		"serve: rqp_runs_total grew by %v, clients counted %d successful runs", after.runsOK-before.runsOK, ok)
	aTail, aLabel := a.tail()
	pTail, pLabel := p.tail()
	all := merge(a, p)
	rps := all.rate() * float64(ok) / float64(len(all.v))
	out.e2e["setup_s"] = median(setups)
	out.e2e["heap_live_mb"] = heap
	out.e2e["p50_ms"] = a.p50()
	out.e2e["p99_ms"] = aTail
	out.e2e["alt_p50_ms"] = p.p50()
	out.e2e["alt_p99_ms"] = pTail
	out.e2e["ops_per_s"] = rps
	out.add("setup_s", "s", median(setups), len(setups), "2-node fleet boot + 4D_Q91 session build + warm-up, median")
	out.add("heap_live_mb", "MiB", heap, 1, "HeapAlloc after GC at the end of the window")
	out.add("error_ratio", "fraction", b.errorRatio(), int(b.attempted), "failed / attempted operations")
	out.add("run_p50_ms", "ms", a.p50(), len(a.v), "client A, direct to the owner [p50_ms]")
	out.add("run_"+aLabel+"_ms", "ms", aTail, len(a.v), "client A [p99_ms]")
	out.add("proxy_p50_ms", "ms", p.p50(), len(p.v), "client B, through the non-owner's proxy [alt_p50_ms]")
	out.add("proxy_"+pLabel+"_ms", "ms", pTail, len(p.v), "client B [alt_p99_ms]")
	out.add("run_rps", "1/s", rps, ok, fmt.Sprintf("successful runs of A+B, window %.2fs [ops_per_s]", elapsed))
	out.add("server.sheds", "count", after.sheds-before.sheds, 1, "rqp_shed_total delta over the window")
	for i, lg := range logs {
		if lg.cut {
			out.notes = append(out.notes, fmt.Sprintf("client %d stopped at the %v window cap after %d runs", i, capWindow(b), len(lg.runs.v)))
		}
	}
	if b.trace {
		if err := traceServeWorkload(b, out, p.p50()); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ---- durable -----------------------------------------------------------

// durableWarm runs every hot-set truth once (plain SpillBound runs), so
// the window's optimizer calls are memo hits.
func durableWarm(b *bench) func(*rig) error {
	return func(r *rig) error {
		c := newClient()
		defer c.close()
		for _, t := range hotSet(b.seed) {
			body, _ := json.Marshal(runReq{Strategy: "spillbound", Truth: t})
			if _, err := parseRun(c.do(http.MethodPost, r.runURL(0), body)); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
		return nil
	}
}

// readTarget picks a durable client's k-th read: even reads fetch one of
// its completed runs, odd reads the trace of one of its last few runs. It
// returns the path and the run whose subOpt the read must return.
func readTarget(session string, k int, done []runResp, pick int) (string, runResp) {
	if k%2 == 0 {
		want := done[pick%len(done)]
		return "/v1/sessions/" + session + "/runs/" + want.RunID, want
	}
	recent := done[max(0, len(done)-recentTraces):]
	want := recent[pick%len(recent)]
	return "/v1/runs/" + want.TraceID + "/trace", want
}

// durableRead issues one read of the mix and checks it.
func durableRead(c *client, r *rig, k int, done []runResp, pick int) (time.Duration, error) {
	path, want := readTarget(r.session, k, done, pick)
	s := time.Now()
	status, data, err := c.do(http.MethodGet, r.url(0, path), nil)
	d := time.Since(s)
	if err != nil {
		return d, err
	}
	return d, checkRead(k, status, data, want)
}

func checkRead(k, status int, data []byte, want runResp) error {
	if status != http.StatusOK {
		return fmt.Errorf("read %d: status %d: %s", k%2, status, data)
	}
	var got float64
	if k%2 == 0 {
		var rr runResp
		if err := json.Unmarshal(data, &rr); err != nil {
			return fmt.Errorf("read run: %w", err)
		}
		got = rr.SubOpt
	} else {
		var tree struct {
			Root struct {
				Attrs map[string]string `json:"attrs"`
			} `json:"root"`
		}
		if err := json.Unmarshal(data, &tree); err != nil {
			return fmt.Errorf("read trace: %w", err)
		}
		v, err := strconv.ParseFloat(tree.Root.Attrs["subOpt"], 64)
		if err != nil {
			return fmt.Errorf("read trace: subOpt attr: %w", err)
		}
		got = v
	}
	if got != want.SubOpt {
		return fmt.Errorf("read %d of run %s: subOpt %v, the run returned %v", k%2, want.RunID, got, want.SubOpt)
	}
	return nil
}

// durableWindow runs the closed loop of durable runs with one read per two
// runs on each client.
func durableWindow(b *bench, r *rig) ([2]*clientLog, float64) {
	n := durableRunsPerSecond * b.seconds
	hot := hotSet(b.seed)
	var logs [2]*clientLog
	var wg sync.WaitGroup
	deadline := time.Now().Add(capWindow(b))
	t0 := time.Now()
	for i := 0; i < 2; i++ {
		logs[i] = &clientLog{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := newClient()
			defer c.close()
			g := newGen(b.seed, "durable", i, hot)
			lg := logs[i]
			var done []runResp
			for k := 0; k < n; k++ {
				if time.Now().After(deadline) {
					lg.cut = true
					return
				}
				req := g.next()
				req.Durable = true
				body, _ := json.Marshal(req)
				s := time.Now()
				status, data, err := c.do(http.MethodPost, r.runURL(0), body)
				lg.runs.add(since(t0), ms(time.Since(s)))
				rr, err := parseRun(status, data, err)
				if err != nil {
					err = fmt.Errorf("client %d request %d, %s at truth %v: %w", i, k, req.Strategy, req.Truth, err)
				}
				b.op(err)
				if err != nil {
					continue
				}
				lg.ok++
				lg.checkpoints += rr.checkpoints()
				rr.Events = nil
				done = append(done, rr)
				if k%2 == 1 {
					d, err := durableRead(c, r, k/2, done, g.rng.Intn(1<<30))
					lg.reads.add(since(t0), ms(d))
					b.op(err)
				}
			}
		}(i)
	}
	wg.Wait()
	return logs, since(t0)
}

func runDurable(b *bench) (*outcome, error) {
	out := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
	t0 := time.Now()
	r, setups, err := setupRepeated(b, "durable", 1, durableWarm(b))
	if err != nil {
		return nil, err
	}
	out.notes = append(out.notes, fmt.Sprintf("set-up: %d repetitions in %.2fs", setupRepeats, since(t0)))
	c := newClient()
	defer c.close()
	before, err := r.scrape(c)
	if err != nil {
		r.close()
		return nil, err
	}
	logs, elapsed := durableWindow(b, r)
	after, err := r.scrape(c)
	if err != nil {
		r.close()
		return nil, err
	}
	heap := heapLiveMB()
	r.close()

	var runList, readList []series
	ok, cps := 0, 0
	for _, lg := range logs {
		runList = append(runList, lg.runs)
		readList = append(readList, lg.reads)
		ok += lg.ok
		cps += lg.checkpoints
	}
	runs, reads := merge(runList...), merge(readList...)
	b.check(after.runsOK-before.runsOK == float64(ok),
		"durable: rqp_runs_total grew by %v, clients counted %d successful runs", after.runsOK-before.runsOK, ok)
	b.check(after.checkpoints-before.checkpoints == float64(cps),
		"durable: rqp_checkpoints_total grew by %v, replies carried %d checkpoint events", after.checkpoints-before.checkpoints, cps)
	runTail, runLabel := runs.tail()
	readTail, readLabel := reads.tail()
	rps := runs.rate() * float64(ok) / float64(max(1, len(runs.v)))
	out.e2e["setup_s"] = median(setups)
	out.e2e["heap_live_mb"] = heap
	out.e2e["p50_ms"] = runs.p50()
	out.e2e["p99_ms"] = runTail
	out.e2e["alt_p50_ms"] = reads.p50()
	out.e2e["alt_p99_ms"] = readTail
	out.e2e["ops_per_s"] = rps
	out.add("setup_s", "s", median(setups), len(setups), "node boot + 4D_Q91 session build + one run per hot truth, median")
	out.add("heap_live_mb", "MiB", heap, 1, "HeapAlloc after GC at the end of the window")
	out.add("error_ratio", "fraction", b.errorRatio(), int(b.attempted), "failed / attempted runs and reads")
	out.add("run_p50_ms", "ms", runs.p50(), len(runs.v), "durable runs, both clients [p50_ms]")
	out.add("run_"+runLabel+"_ms", "ms", runTail, len(runs.v), "durable runs [p99_ms]")
	out.add("read_p50_ms", "ms", reads.p50(), len(reads.v), "read mix: run resource / trace [alt_p50_ms]")
	out.add("read_"+readLabel+"_ms", "ms", readTail, len(reads.v), "read mix [alt_p99_ms]")
	out.add("run_rps", "1/s", rps, ok, fmt.Sprintf("successful durable runs, window %.2fs [ops_per_s]", elapsed))
	out.add("server.sheds", "count", after.sheds-before.sheds, 1, "rqp_shed_total delta over the window")
	out.add("checkpoints", "count", float64(cps), ok, "checkpoint_save events in the replies = rqp_checkpoints_total delta")
	for i, lg := range logs {
		if lg.cut {
			out.notes = append(out.notes, fmt.Sprintf("client %d stopped at the %v window cap after %d runs", i, capWindow(b), len(lg.runs.v)))
		}
	}
	if b.trace {
		if err := traceDurableWorkload(b, out, runs.p50()); err != nil {
			return nil, err
		}
	}
	return out, nil
}
