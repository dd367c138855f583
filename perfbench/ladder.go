package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"time"

	"repro"
	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/optimizer"
	"repro/internal/trace"
)

// The traced run replays a workload's seeded request sequence on a fresh
// rig (so optimizer memo state matches the timed window) and walks every
// request down a layer ladder of successively thinner entry points:
//
//	proxied HTTP (serve)  POST to the non-owner, which proxies to the owner
//	direct HTTP           POST to the owner
//	in-process handler    the owner's server Handler().ServeHTTP
//	library (durable)     Session.RunDurable on the benchmark's own session
//	library               Session.RunContext on the benchmark's own session
//	trace                 trace.FromRun over the library run's events
//	bare strategy         Strategy.SweepRun(session)(truth)
//	optimizer             optimizer.Optimize at the truth (private optimizer)
//
// Each rung is a span under the request's root span; a layer's self time
// is the paired difference of adjacent rungs on the same request, and the
// reported figure is the median over requests. A rung that is the first to
// show a session a truth pays that session's memo miss, so it is compared
// after subtracting the same request's optimizer rung.
//
// Every rung must agree on totalCost and step count (the bare rung on
// totalCost): a disagreement fails the run.

// seenSet tracks which truths a session has optimized (its memo).
type seenSet struct {
	mu sync.Mutex
	m  map[string]bool
}

func newSeen() *seenSet { return &seenSet{m: map[string]bool{}} }

// first reports whether the truth is new to the session, and marks it.
func (s *seenSet) first(t []float64) bool {
	k := truthKey(t)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m[k] {
		return false
	}
	s.m[k] = true
	return true
}

// ladderLog collects one ladder's per-request paired differences.
type ladderLog struct {
	mu                   sync.Mutex
	proxy, wire, handler []float64
	run, truth, fromRun  []float64
	bare                 map[string][]float64
	top                  []float64 // top rung, ms
	respBytes            []float64
	readHandler          []float64
	events, checkpoints  int
	requests, repeats    int
	durable, viaProxy    bool
	cut                  bool // the window cap stopped a client early
}

func (l *ladderLog) add(f func(l *ladderLog)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	f(l)
}

// ladderEnv is what every client of a ladder shares.
type ladderEnv struct {
	b          *bench
	tr         *tracer
	r          *rig
	lib        *repro.Session
	model      *cost.Model
	serverSeen *seenSet
	libSeen    *seenSet
	log        *ladderLog
}

func newLadderEnv(b *bench, tr *tracer, r *rig, durable bool) (*ladderEnv, error) {
	opts := repro.BenchmarkOptions()
	if durable {
		opts.DataDir = filepath.Join(r.dir, "library-session")
	}
	lib, err := repro.NewBenchmarkSession(spec(sessionQuery), opts)
	if err != nil {
		return nil, err
	}
	q, err := spec(sessionQuery).Build(catalog.TPCDS(100))
	if err != nil {
		return nil, err
	}
	m, err := cost.NewModel(q, opts.Params)
	if err != nil {
		return nil, err
	}
	return &ladderEnv{
		b: b, tr: tr, r: r, lib: lib, model: m,
		serverSeen: newSeen(), libSeen: newSeen(),
		log: &ladderLog{bare: map[string][]float64{}, durable: durable, viaProxy: len(r.addrs) > 1},
	}, nil
}

// agree checks that every rung returned the same totalCost and steps.
func (e *ladderEnv) agree(id string, ref runResp, others map[string]runResp, bare float64) {
	for name, o := range others {
		e.b.check(o.TotalCost == ref.TotalCost && o.Steps == ref.Steps,
			"ladder %s: rung %s returned totalCost %v steps %d, library returned %v steps %d",
			id, name, o.TotalCost, o.Steps, ref.TotalCost, ref.Steps)
	}
	e.b.check(bare == ref.TotalCost, "ladder %s: bare strategy returned totalCost %v, library %v", id, bare, ref.TotalCost)
}

// handlerDo serves one request in-process on the owner's server handler.
func (e *ladderEnv) handlerDo(method, path string, body []byte) (int, []byte) {
	w := httptest.NewRecorder()
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	e.r.inner[e.r.owner].ServeHTTP(w, req)
	return w.Code, w.Body.Bytes()
}

// walk sends one request down the ladder.
// It returns the direct rung's reply, which names the durable run.
func (e *ladderEnv) walk(c *client, opt *optimizer.Optimizer, bare map[string]func(repro.Location) float64, id string, req runReq) (runResp, bool) {
	tr, r, l := e.tr, e.r, e.log
	truth := repro.Location(req.Truth)
	algo := repro.Algorithm(req.Strategy)
	body, _ := json.Marshal(req)
	root, done := tr.reserve(id, "request "+req.Strategy)
	defer done()
	runPath := "/v1/sessions/" + r.session + "/run"
	others := map[string]runResp{}
	var errs []error
	rung := func(name string, f func() error) time.Duration {
		var err error
		d := tr.rung(root, id, name, func() { err = f() })
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", name, err))
		}
		return d
	}
	serverMiss := e.serverSeen.first(req.Truth)
	var tProxy time.Duration
	if l.viaProxy {
		tProxy = rung("fleet proxy: POST via non-owner", func() error {
			rr, err := parseRun(c.do(http.MethodPost, r.runURL(1-r.owner), body))
			others["proxied"] = rr
			return err
		})
	}
	tDirect := rung("server: POST to owner", func() error {
		rr, err := parseRun(c.do(http.MethodPost, r.runURL(r.owner), body))
		others["direct"] = rr
		if l.durable {
			l.add(func(l *ladderLog) { l.checkpoints += rr.checkpoints() })
		}
		return err
	})
	var size int
	tHandler := rung("server: in-process handler", func() error {
		status, data := e.handlerDo(http.MethodPost, runPath, body)
		size = len(data)
		rr, err := parseRun(status, data, nil)
		others["handler"] = rr
		return err
	})
	libMiss := e.libSeen.first(req.Truth)
	var tDurable time.Duration
	if l.durable {
		tDurable = rung("repro: Session.RunDurable", func() error {
			res, err := e.lib.RunDurable(context.Background(), algo, truth, id)
			others["library-durable"] = runResp{TotalCost: res.TotalCost, Steps: len(res.Steps)}
			return err
		})
	}
	var res repro.RunResult
	tLib := rung("repro: Session.RunContext", func() error {
		var err error
		res, err = e.lib.RunContext(context.Background(), algo, truth)
		if err != nil {
			return err
		}
		// Like the server's reply, a degraded run states no guarantee.
		g := e.lib.Guarantee(algo)
		if res.Degraded {
			g = 0
		}
		return checkSubOpt(res.SubOpt, g)
	})
	tFrom := rung("trace: FromRun", func() error { trace.FromRun(res.TraceID, res.Events); return nil })
	var bareCost float64
	tBare := rung(req.Strategy+": bare SweepRun", func() error { bareCost = bare[req.Strategy](truth); return nil })
	tTruth := rung("optimizer: Optimize at truth", func() error { opt.Optimize(truth); return nil })
	for _, err := range errs {
		e.b.op(fmt.Errorf("ladder %s, %s at truth %v: %w", id, req.Strategy, req.Truth, err))
	}
	if len(errs) > 0 {
		return runResp{}, false
	}
	e.b.op(nil)
	e.agree(id, runResp{TotalCost: res.TotalCost, Steps: len(res.Steps)}, others, bareCost)

	// The first rung to reach a session pays its memo miss: the first
	// server rung (proxied on serve, direct on durable) and the first
	// library rung (RunDurable on durable, RunContext on serve).
	truthUs := us(tTruth)
	hit := func(d time.Duration, miss bool) float64 {
		if miss {
			return us(d) - truthUs
		}
		return us(d)
	}
	lib := hit(tLib, libMiss && !l.durable)
	below := lib // what the handler calls into
	if l.durable {
		below = hit(tDurable, libMiss)
	}
	direct := hit(tDirect, serverMiss && !l.viaProxy)
	l.add(func(l *ladderLog) {
		l.requests++
		if !serverMiss {
			l.repeats++
		}
		if l.viaProxy {
			l.proxy = append(l.proxy, hit(tProxy, serverMiss)-direct)
			l.top = append(l.top, ms(tProxy))
		} else {
			l.top = append(l.top, ms(tDirect))
		}
		l.wire = append(l.wire, direct-us(tHandler))
		l.handler = append(l.handler, us(tHandler)-below)
		l.run = append(l.run, lib-us(tBare))
		l.truth = append(l.truth, truthUs)
		l.fromRun = append(l.fromRun, us(tFrom))
		l.bare[req.Strategy] = append(l.bare[req.Strategy], us(tBare))
		l.respBytes = append(l.respBytes, float64(size))
		l.events += len(res.Events)
	})
	return others["direct"], true
}

// read walks one durable read (alternating run resource and trace) down
// the direct-HTTP and in-process rungs.
func (e *ladderEnv) read(c *client, id string, k int, done []runResp, pick int) {
	path, want := readTarget(e.r.session, k, done, pick)
	root, end := e.tr.reserve(id, "read")
	defer end()
	var err1, err2 error
	e.tr.rung(root, id, "server: GET", func() {
		status, data, err := c.do(http.MethodGet, e.r.url(e.r.owner, path), nil)
		if err == nil {
			err = checkRead(k, status, data, want)
		}
		err1 = err
	})
	d := e.tr.rung(root, id, "server: in-process read handler", func() {
		status, data := e.handlerDo(http.MethodGet, path, nil)
		err2 = checkRead(k, status, data, want)
	})
	e.b.op(err1)
	e.b.op(err2)
	e.log.add(func(l *ladderLog) { l.readHandler = append(l.readHandler, us(d)) })
}

// run drives perClient ladder requests on each of two clients, replaying
// the workload's request streams.
func (e *ladderEnv) run(stream string, hot [][]float64, perClient int) error {
	deadline := time.Now().Add(capWindow(e.b))
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := newClient()
			defer c.close()
			opt, err := optimizer.New(e.model)
			if err != nil {
				errs[i] = err
				return
			}
			bare := map[string]func(repro.Location) float64{}
			for _, m := range strategyMix {
				st, ok := repro.LookupStrategy(m.name)
				if !ok {
					errs[i] = fmt.Errorf("strategy %s not registered", m.name)
					return
				}
				bare[m.name] = st.SweepRun(e.lib)
			}
			g := newGen(e.b.seed, stream, i, hot)
			var done []runResp
			for k := 0; k < perClient; k++ {
				if time.Now().After(deadline) {
					e.log.add(func(l *ladderLog) { l.cut = true })
					return
				}
				req := g.next()
				req.Durable = e.log.durable
				id := fmt.Sprintf("%s-c%d-%d", stream, i, k)
				rr, ok := e.walk(c, opt, bare, id, req)
				if !e.log.durable {
					continue
				}
				if ok {
					rr.Events = nil
					done = append(done, rr)
				}
				if k%2 == 1 && len(done) > 0 {
					e.read(c, id+"-read", k/2, done, g.rng.Intn(1<<30))
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
