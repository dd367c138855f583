package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"repro"
	"repro/internal/aligned"
	"repro/internal/bouquet"
	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/ess"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/spillbound"
	"repro/internal/workload"
)

// The offline workload: each round builds three sessions at their default
// resolutions and sweeps three strategies over two of them.
var (
	offlineQueries = []string{"4D_Q91", "5D_Q84", "6D_Q18"}
	sweptQueries   = []string{"4D_Q91", "5D_Q84"}
	sweptAlgos     = []string{"spillbound", "planbouquet", "alignedbound"}
)

const (
	// sweepLocations is the seeded location sample of every sweep.
	sweepLocations = 400
	// sampleSeeds is how many distinct location samples exist: the workload
	// seed picks one, and expected.json holds MSO/ASO for each.
	sampleSeeds   = 16
	offlineRounds = 6 // per 20 s of --seconds, at least 2
)

//go:embed expected.json
var expectedJSON []byte

// expected holds reference outputs recorded from the code the benchmark
// was written against (--record-expected): POSP sizes per query and, per
// sample seed, the [MSO, ASO] of each sweep.
type expected struct {
	POSP   map[string]int                   `json:"posp"`
	Sweeps map[string]map[string][2]float64 `json:"sweeps"`
}

func loadExpected() (*expected, error) {
	var e expected
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return &e, nil
}

// sampleSeed maps the workload seed onto one of the recorded samples.
func sampleSeed(seed int64) int64 { return 1 + ((seed%sampleSeeds)+sampleSeeds)%sampleSeeds }

func offlineOptions(seed int64) repro.Options {
	o := repro.BenchmarkOptions()
	o.SweepSeed = sampleSeed(seed)
	return o
}

func spec(name string) repro.BenchmarkQuery {
	q, ok := repro.BenchmarkQueryByName(name)
	if !ok {
		panic("perfbench: unknown benchmark query " + name)
	}
	return q
}

// recordExpected prints expected.json for the current code.
func recordExpected(w io.Writer) error {
	e := expected{POSP: map[string]int{}, Sweeps: map[string]map[string][2]float64{}}
	for _, q := range offlineQueries {
		s, err := repro.NewBenchmarkSession(spec(q), repro.BenchmarkOptions())
		if err != nil {
			return err
		}
		e.POSP[q] = s.POSPSize()
	}
	for ss := int64(1); ss <= sampleSeeds; ss++ {
		m := map[string][2]float64{}
		for _, q := range sweptQueries {
			o := repro.BenchmarkOptions()
			o.SweepSeed = ss
			s, err := repro.NewBenchmarkSession(spec(q), o)
			if err != nil {
				return err
			}
			for _, a := range sweptAlgos {
				sum, err := s.SweepContext(context.Background(), repro.Algorithm(a), sweepLocations)
				if err != nil {
					return err
				}
				m[q+"/"+a] = [2]float64{sum.MSO, sum.ASO}
			}
		}
		e.Sweeps[fmt.Sprint(ss)] = m
	}
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(data))
	return err
}

// round is one offline round's timings.
type round struct {
	build, slowestBuild float64 // s
	sweep, slowestSweep float64 // s
	locations           int
	sessions            []*repro.Session
}

// offlineRound builds the three sessions and runs the six sweeps, checking
// POSP sizes and MSO/ASO against the recorded values and the guarantees.
func offlineRound(b *bench, exp *expected) round {
	var r round
	opts := offlineOptions(b.seed)
	want := exp.Sweeps[fmt.Sprint(sampleSeed(b.seed))]
	sessions := map[string]*repro.Session{}
	t0 := time.Now()
	for _, q := range offlineQueries {
		s0 := time.Now()
		s, err := repro.NewBenchmarkSession(spec(q), opts)
		r.slowestBuild = max(r.slowestBuild, since(s0))
		if err == nil && s.POSPSize() != exp.POSP[q] {
			err = fmt.Errorf("%s: POSP has %d plans, expected %d", q, s.POSPSize(), exp.POSP[q])
		}
		b.op(err)
		if err == nil {
			sessions[q] = s
			r.sessions = append(r.sessions, s)
		}
	}
	r.build = since(t0)
	t0 = time.Now()
	for _, q := range sweptQueries {
		s := sessions[q]
		if s == nil {
			continue
		}
		for _, a := range sweptAlgos {
			s0 := time.Now()
			sum, err := s.SweepContext(context.Background(), repro.Algorithm(a), sweepLocations)
			r.slowestSweep = max(r.slowestSweep, since(s0))
			if err == nil {
				r.locations += sum.Locations
				err = checkSweep(s, q, a, sum, want)
			}
			b.op(err)
		}
	}
	r.sweep = since(t0)
	return r
}

func checkSweep(s *repro.Session, q, a string, sum repro.SweepSummary, want map[string][2]float64) error {
	w, ok := want[q+"/"+a]
	if !ok {
		return fmt.Errorf("%s/%s: no recorded MSO/ASO", q, a)
	}
	if sum.MSO != w[0] || sum.ASO != w[1] {
		return fmt.Errorf("%s/%s: MSO %v ASO %v, recorded %v %v", q, a, sum.MSO, sum.ASO, w[0], w[1])
	}
	switch a {
	case "spillbound":
		if d := float64(s.D()); sum.MSO > d*d+3*d {
			return fmt.Errorf("%s: SpillBound MSO %v above D²+3D", q, sum.MSO)
		}
	case "planbouquet":
		if g := s.Guarantee(repro.Algorithm(a)); sum.MSO > g {
			return fmt.Errorf("%s: PlanBouquet MSO %v above its guarantee %v", q, sum.MSO, g)
		}
	}
	return nil
}

func runOffline(b *bench) (*outcome, error) {
	out := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
	exp, err := loadExpected()
	if err != nil {
		return nil, err
	}
	// Set-up is the warm-up: the 4D_Q91 and 5D_Q84 builds, repeated for a
	// steady median.
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		for _, q := range sweptQueries {
			if _, err := repro.NewBenchmarkSession(spec(q), offlineOptions(b.seed)); err != nil {
				return nil, err
			}
		}
		setups = append(setups, since(t0))
	}
	rounds := max(2, offlineRounds*b.seconds/20)
	var builds, slowB, sweeps, slowS, rates []float64
	locs := 0
	var last round
	t0 := time.Now()
	deadline := t0.Add(capWindow(b))
	for i := 0; i < rounds; i++ {
		if i >= 2 && time.Now().After(deadline) {
			out.notes = append(out.notes, fmt.Sprintf("stopped at the %v window cap after %d of %d rounds", capWindow(b), i, rounds))
			rounds = i
			break
		}
		last = offlineRound(b, exp)
		builds = append(builds, last.build)
		slowB = append(slowB, last.slowestBuild)
		sweeps = append(sweeps, last.sweep)
		slowS = append(slowS, last.slowestSweep)
		locs += last.locations
		rates = append(rates, float64(last.locations)/last.sweep)
	}
	window := since(t0)
	heap := heapLiveMB()
	runtime.KeepAlive(last.sessions)
	out.e2e["setup_s"] = median(setups)
	out.e2e["heap_live_mb"] = heap
	out.e2e["p50_ms"] = median(builds) * 1e3
	out.e2e["p99_ms"] = median(slowB) * 1e3
	out.e2e["alt_p50_ms"] = median(sweeps) * 1e3
	out.e2e["alt_p99_ms"] = median(slowS) * 1e3
	out.e2e["ops_per_s"] = median(rates)
	out.notes = append(out.notes, fmt.Sprintf("%d rounds in %.2fs; sweeps sample %d locations (sample seed %d), workers %d",
		rounds, window, sweepLocations, sampleSeed(b.seed), runtime.GOMAXPROCS(0)))
	out.add("setup_s", "s", median(setups), len(setups), "warm-up 4D_Q91 and 5D_Q84 builds, median")
	out.add("heap_live_mb", "MiB", heap, 1, "HeapAlloc after GC at the end of the window (last round's sessions live)")
	out.add("error_ratio", "fraction", b.errorRatio(), int(b.attempted), "failed / attempted builds and sweeps")
	out.add("build_s", "s", median(builds), len(builds), "3 sessions per round, median over rounds [p50_ms]")
	out.add("slowest_build_s", "s", median(slowB), len(slowB), "6D_Q18 build, median over rounds [p99_ms]")
	out.add("sweep_s", "s", median(sweeps), len(sweeps), "6 sweeps per round, median over rounds [alt_p50_ms]")
	out.add("slowest_sweep_s", "s", median(slowS), len(slowS), "slowest sweep of a round, median over rounds [alt_p99_ms]")
	out.add("swept_locs_per_s", "1/s", median(rates), locs, "locations swept per second of a round's sweeps, median over rounds [ops_per_s]")
	if b.trace {
		if err := traceOfflineWorkload(b, out, exp, median(sweeps)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ---- offline layer ladder ----------------------------------------------

// countingExec counts the executions a bare strategy run makes.
type countingExec struct {
	e *engine.Engine
	n int
}

func (c *countingExec) Execute(p *plan.Plan, budget float64) engine.Result {
	c.n++
	return c.e.Execute(p, budget)
}

func (c *countingExec) ExecuteSpill(p *plan.Plan, dim int, budget float64) (engine.SpillResult, bool) {
	c.n++
	return c.e.ExecuteSpill(p, dim, budget)
}

// offlineLadder measures the offline layers on the given queries: cost
// model evaluation, per-cell optimization, serial and parallel ESS builds,
// sweeps through the session, and bare strategy runs with an execution
// count. Each measured call is a span under its query's root span.
func offlineLadder(b *bench, out *outcome, tr *tracer, exp *expected, queries []string, swept []string, cellSample int) (sweepSeconds float64, err error) {
	workers := runtime.GOMAXPROCS(0)
	var evalNs, optUs []float64
	var serialCells, parallelCells int
	var serialT, parallelT float64
	posp := 0
	sweepLocs := map[string]int{}
	sweepT := map[string]float64{}
	execs := map[string]int{}
	locs := map[string]int{}
	bareT := 0.0
	allExecs := 0
	cat := catalog.TPCDS(100)
	opts := offlineOptions(b.seed)
	for qi, name := range queries {
		sp := spec(name)
		root, done := tr.reserve(name, "offline "+name)
		q, err := workload.Spec(sp).Build(cat)
		if err != nil {
			return 0, err
		}
		m, err := cost.NewModel(q, opts.Params)
		if err != nil {
			return 0, err
		}
		grid := ess.NewGrid(q.D(), sp.GridRes, sp.GridLo)
		var serial, parallel *ess.Space
		d := tr.rung(root, name, "ess.BuildParallelContext workers=1", func() {
			serial, err = ess.BuildParallelContext(context.Background(), m, grid, 1, nil)
		})
		if err != nil {
			return 0, err
		}
		serialCells += grid.Size()
		serialT += d.Seconds()
		d = tr.rung(root, name, fmt.Sprintf("ess.BuildParallelContext workers=%d", workers), func() {
			parallel, err = ess.BuildParallelContext(context.Background(), m, grid, workers, nil)
		})
		if err != nil {
			return 0, err
		}
		parallelCells += grid.Size()
		parallelT += d.Seconds()
		b.check(len(serial.Plans()) == len(parallel.Plans()), "%s: serial build has %d POSP plans, parallel %d", name, len(serial.Plans()), len(parallel.Plans()))
		b.check(len(parallel.Plans()) == exp.POSP[name], "%s: POSP has %d plans, expected %d", name, len(parallel.Plans()), exp.POSP[name])
		posp += len(parallel.Plans())

		rng := rand.New(rand.NewSource(streamSeed(b.seed, "cells/"+name, qi)))
		cells := make([]int, cellSample)
		for i := range cells {
			cells[i] = rng.Intn(grid.Size())
		}
		opt, err := optimizer.New(m)
		if err != nil {
			return 0, err
		}
		for _, ci := range cells {
			loc := grid.Location(ci)
			optUs = append(optUs, us(tr.rung(root, name, "optimizer.Optimize", func() { opt.Optimize(loc) })))
		}
		plans := parallel.Plans()
		for _, ci := range cells[:min(len(cells), 64)] {
			loc := grid.Location(ci)
			d := tr.rung(root, name, "cost.Eval over POSP", func() {
				for _, p := range plans {
					m.Eval(p, loc)
				}
			})
			evalNs = append(evalNs, float64(d.Nanoseconds())/float64(len(plans)))
		}
		if !contains(swept, name) {
			done()
			continue
		}
		var sess *repro.Session
		tr.rung(root, name, "repro.NewBenchmarkSession", func() { sess, err = repro.NewBenchmarkSession(sp, opts) })
		if err != nil {
			return 0, err
		}
		for _, a := range sweptAlgos {
			var sum repro.SweepSummary
			d := tr.rung(root, name, "repro.Session.SweepContext "+a, func() {
				sum, err = sess.SweepContext(context.Background(), repro.Algorithm(a), sweepLocations)
			})
			if err != nil {
				return 0, err
			}
			sweepLocs[a] += sum.Locations
			sweepT[a] += d.Seconds()
			sweepSeconds += d.Seconds()
		}
		diag := bouquet.Reduce(parallel, opts.ReductionLambda)
		for _, a := range sweptAlgos {
			for _, ci := range cells {
				ce := &countingExec{e: engine.New(m, grid.Location(ci))}
				d := tr.rung(root, name, a+" bare run", func() {
					switch a {
					case "spillbound":
						(&spillbound.Runner{Space: parallel, Ratio: opts.ContourRatio}).Run(ce)
					case "planbouquet":
						bouquet.Run(diag, ce, opts.ContourRatio)
					case "alignedbound":
						(&aligned.Runner{Space: parallel, Ratio: opts.ContourRatio}).Run(ce)
					}
				})
				execs[a] += ce.n
				locs[a]++
				allExecs += ce.n
				bareT += d.Seconds()
			}
		}
		done()
	}
	note := fmt.Sprintf("over %v", queries)
	out.addLayer("cost.eval_ns", median(evalNs), len(evalNs), "POSP plans × sampled cells, "+note)
	out.addLayer("optimizer.optimize_us", median(optUs), len(optUs), "fresh optimizer per query, sampled cells, "+note)
	out.addLayer("ess.cells_per_s.serial", float64(serialCells)/serialT, serialCells, note)
	out.addLayer("ess.cells_per_s.parallel", float64(parallelCells)/parallelT, parallelCells, fmt.Sprintf("%d workers, %s", workers, note))
	out.addLayer("ess.speedup", (float64(parallelCells)/parallelT)/(float64(serialCells)/serialT), len(queries), "parallel ÷ serial cells/s")
	out.addLayer("ess.posp_plans", float64(posp), len(queries), "summed "+note)
	for _, a := range sweptAlgos {
		out.addLayer("metrics.locs_per_s."+a, float64(sweepLocs[a])/sweepT[a], sweepLocs[a], fmt.Sprintf("Session.SweepContext over %v", swept))
	}
	out.addLayer("spillbound.execs_per_loc", float64(execs["spillbound"])/float64(locs["spillbound"]), locs["spillbound"], "bare runner, sampled cells")
	out.addLayer("bouquet.execs_per_loc", float64(execs["planbouquet"])/float64(locs["planbouquet"]), locs["planbouquet"], "bare runner, sampled cells")
	out.addLayer("aligned.execs_per_loc", float64(execs["alignedbound"])/float64(locs["alignedbound"]), locs["alignedbound"], "bare runner, sampled cells")
	out.addLayer("engine.exec_us", bareT*1e6/float64(allExecs), allExecs, "bare strategy time ÷ executions")
	return sweepSeconds, nil
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
