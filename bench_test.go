// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (Sec 6), each regenerating the experiment end-to-end
// on reduced grids, plus micro-benchmarks of the core machinery (optimizer,
// ESS construction, the three algorithms, spill execution). Run with
//
//	go test -bench=. -benchmem
//
// The full-scale experiment outputs live in EXPERIMENTS.md and are
// regenerated by cmd/experiments.
package repro

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/aligned"
	"repro/internal/bouquet"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/ess"
	"repro/internal/experiments"
	"repro/internal/lowerbound"
	"repro/internal/metrics"
	"repro/internal/native"
	"repro/internal/optimizer"
	"repro/internal/rowexec"
	"repro/internal/spillbound"
	"repro/internal/telemetry"
	"repro/internal/viz"
	"repro/internal/workload"
)

// benchConfig shrinks grids and sweep budgets so each experiment
// regenerates in benchmark-friendly time while preserving every code path.
func benchConfig() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.MaxLocations = 48
	cfg.ResOverride = map[string]int{}
	res := func(d int) int {
		switch d {
		case 2:
			return 10
		case 3:
			return 7
		case 4:
			return 5
		default:
			return 4
		}
	}
	for _, sp := range workload.TPCDSQueries() {
		cfg.ResOverride[sp.Name] = res(sp.D)
	}
	for d := 2; d <= 6; d++ {
		cfg.ResOverride[workload.Q91(d).Name] = res(d)
	}
	cfg.ResOverride["JOB_1a"] = 10
	return cfg
}

func BenchmarkFig08MSOGuarantees(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(benchConfig())
		if _, err := lab.Fig8(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig09GuaranteeVsDim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(benchConfig())
		if _, err := lab.Fig9(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10EmpiricalMSO(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(benchConfig())
		if _, err := lab.Fig10(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11ASO(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(benchConfig())
		if _, err := lab.Fig11(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12SubOptHistogram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(benchConfig())
		if _, err := lab.Fig12(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13ABvsSB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(benchConfig())
		if _, err := lab.Fig13(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2AlignmentCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(benchConfig())
		if _, err := lab.Table2(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3ExecutionTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(benchConfig())
		if _, err := lab.Table3(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4MaxPenalty(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(benchConfig())
		if _, err := lab.Table4(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtraPlatformShift(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(benchConfig())
		if _, err := lab.PlatformShift(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtraJOB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(benchConfig())
		if _, err := lab.JOB(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig07ExecutionTraceRender(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(benchConfig())
		if _, err := lab.Fig7(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationContourRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(benchConfig())
		if _, err := lab.RatioAblation(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationCostModelError(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(benchConfig())
		if _, err := lab.DeltaRobustness(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtraCorrelatedWorkload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(benchConfig())
		if _, err := lab.CorrelatedWorkload(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- micro-benchmarks of the core machinery ---

var (
	microOnce  sync.Once
	microSpace *ess.Space
	microOpt   *optimizer.Optimizer
	microDiag  *bouquet.Diagram
)

// microSetup builds a shared 2D space for the per-operation benchmarks.
func microSetup(b *testing.B) {
	b.Helper()
	microOnce.Do(func() {
		sp := workload.Q91(2)
		cat := TPCDSCatalog(100)
		q, err := sp.Build(cat)
		if err != nil {
			panic(err)
		}
		m := cost.MustNewModel(q, cost.PostgresLike())
		microOpt = optimizer.MustNew(m)
		microSpace, err = ess.BuildParallelContext(context.Background(), m, ess.NewGrid(2, 16, 1e-6), 1, nil)
		if err != nil {
			panic(err)
		}
		microDiag = bouquet.Reduce(microSpace, 0.2)
	})
}

func BenchmarkOptimizerOptimize(b *testing.B) {
	microSetup(b)
	loc := cost.Location{1e-4, 1e-3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		microOpt.Optimize(loc)
	}
}

func BenchmarkCostEval(b *testing.B) {
	microSetup(b)
	p := microSpace.PlanAt(microSpace.Grid.Size() / 2)
	loc := cost.Location{1e-4, 1e-3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		microSpace.Model.Eval(p, loc)
	}
}

// BenchmarkBuildESS times the ESS build alone of 6D_Q18, the offline
// workload's largest grid (15,625 cells): the whole-grid DP, plan
// numbering and nothing else, with the cost model built outside the timer.
// workers=1 is the serial build, workers=N uses GOMAXPROCS workers.
func BenchmarkBuildESS(b *testing.B) {
	bq, ok := BenchmarkQueryByName("6D_Q18")
	if !ok {
		b.Fatal("6D_Q18 missing from the benchmark workload")
	}
	q, err := bq.Build(TPCDSCatalog(100))
	if err != nil {
		b.Fatal(err)
	}
	m := cost.MustNewModel(q, BenchmarkOptions().Params)
	g := ess.NewGrid(q.D(), bq.GridRes, bq.GridLo)
	for _, bc := range []struct {
		name    string
		workers int
	}{{"workers=1", 1}, {"workers=N", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ess.BuildParallelContext(context.Background(), m, g, bc.workers, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBuildSession measures NewBenchmarkSession of 6D_Q18: the
// parallel DP build, the anorexic reduction and PlanBouquet's guarantee,
// the slowest of the offline workload's session builds.
func BenchmarkBuildSession(b *testing.B) {
	bq, ok := BenchmarkQueryByName("6D_Q18")
	if !ok {
		b.Fatal("6D_Q18 missing from the benchmark workload")
	}
	for i := 0; i < b.N; i++ {
		if _, err := NewBenchmarkSession(bq, BenchmarkOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineSpillExecution(b *testing.B) {
	microSetup(b)
	truth := cost.Location{0.01, 0.1}
	e := engine.New(microSpace.Model, truth)
	p := microSpace.PlanAt(microSpace.Grid.Size() - 1)
	budget := microSpace.MaxCost() / 4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ExecuteSpill(p, 0, budget)
	}
}

func BenchmarkPlanBouquetRun(b *testing.B) {
	microSetup(b)
	truth := cost.Location{0.01, 0.1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bouquet.Run(microDiag, engine.New(microSpace.Model, truth), 2)
	}
}

func BenchmarkSpillBoundRun(b *testing.B) {
	microSetup(b)
	r := spillbound.NewRunner(microSpace)
	truth := cost.Location{0.01, 0.1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Run(engine.New(microSpace.Model, truth))
	}
}

func BenchmarkAlignedBoundRun(b *testing.B) {
	microSetup(b)
	r := aligned.NewRunner(microSpace)
	truth := cost.Location{0.01, 0.1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Run(engine.New(microSpace.Model, truth))
	}
}

func BenchmarkNativeMSO(b *testing.B) {
	microSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		native.MSO(microSpace, 4)
	}
}

func BenchmarkMetricsSweepSB(b *testing.B) {
	microSetup(b)
	r := spillbound.NewRunner(microSpace)
	run := func(truth cost.Location) float64 {
		return r.Run(engine.New(microSpace.Model, truth)).TotalCost
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := metrics.SweepContext(context.Background(), microSpace, run, metrics.SweepOptions{MaxLocations: 32, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMetricsSweepAB is BenchmarkMetricsSweepSB for AlignedBound. It
// measures only the warm path: after the first op the Space's contour memo
// answers every partition planning, so no op plans a contour. The cold
// path is BenchmarkColdSweepAB.
func BenchmarkMetricsSweepAB(b *testing.B) {
	microSetup(b)
	r := aligned.NewRunner(microSpace)
	run := func(truth cost.Location) float64 {
		return r.Run(engine.New(microSpace.Model, truth)).TotalCost
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := metrics.SweepContext(context.Background(), microSpace, run, metrics.SweepOptions{MaxLocations: 32, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdSweepAB sweeps AlignedBound over 400 locations of a fresh
// 5D_Q84 benchmark session per op, the offline workload's slowest sweep:
// the session's contour memo starts empty, so the op plans every contour
// it meets (partition search and induced replacements). The session build
// is outside the timer.
func BenchmarkColdSweepAB(b *testing.B) {
	bq, ok := BenchmarkQueryByName("5D_Q84")
	if !ok {
		b.Fatal("5D_Q84 missing from the benchmark workload")
	}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sess, err := NewBenchmarkSession(bq, BenchmarkOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := sess.SweepContext(context.Background(), AlignedBound, 400); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdSweepSB is BenchmarkColdSweepAB for SpillBound: 400
// locations of a fresh 5D_Q84 benchmark session per op, the build outside
// the timer, so every spill's monitoring bound is computed afresh.
func BenchmarkColdSweepSB(b *testing.B) {
	bq, ok := BenchmarkQueryByName("5D_Q84")
	if !ok {
		b.Fatal("5D_Q84 missing from the benchmark workload")
	}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sess, err := NewBenchmarkSession(bq, BenchmarkOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := sess.SweepContext(context.Background(), SpillBound, 400); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMetricsSweepPB sweeps PlanBouquet over 400 locations of a
// 4D_Q91 benchmark session through Session.SweepContext, the offline
// workload's sweep: every run executes the diagram's contour plan lists.
func BenchmarkMetricsSweepPB(b *testing.B) {
	bq, ok := BenchmarkQueryByName("4D_Q91")
	if !ok {
		b.Fatal("4D_Q91 missing from the benchmark workload")
	}
	sess, err := NewBenchmarkSession(bq, BenchmarkOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.SweepContext(context.Background(), PlanBouquet, 400); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRowEngineFullRun(b *testing.B) {
	microSetup(b)
	re := &rowexec.Engine{Query: microSpace.Query, Params: cost.PostgresLike(), RowCap: 3000}
	p := microSpace.PlanAt(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := re.Run(p, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRowEngineSpillBound(b *testing.B) {
	microSetup(b)
	re := &rowexec.Engine{Query: microSpace.Query, Params: cost.PostgresLike(), RowCap: 2000}
	r := spillbound.NewRunner(microSpace)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.RunContext(context.Background(), &rowexec.Adapter{E: re}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReduce measures anorexic reduction at λ=0.2, the reduction
// every benchmark session build runs, on 4D_Q91 (the serve workload's
// session), 5D_Q84 and 6D_Q18 (the slowest). Each space is built outside
// the timer.
func BenchmarkReduce(b *testing.B) {
	for _, name := range []string{"4D_Q91", "5D_Q84", "6D_Q18"} {
		b.Run(name, func(b *testing.B) {
			bq, ok := BenchmarkQueryByName(name)
			if !ok {
				b.Fatalf("%s missing from the benchmark workload", name)
			}
			s, err := NewBenchmarkSession(bq, BenchmarkOptions())
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bouquet.Reduce(s.space, s.opts.ReductionLambda)
			}
		})
	}
}

// BenchmarkPlanSetEval costs the schedule of the first half of 6D_Q18's
// POSP through a borrowed cost table, at one cell in one lane and at
// cost.Lanes cells in as many lanes, and reports the time per node costed
// in one lane (ns/node).
func BenchmarkPlanSetEval(b *testing.B) {
	bq, ok := BenchmarkQueryByName("6D_Q18")
	if !ok {
		b.Fatal("6D_Q18 missing from the benchmark workload")
	}
	s, err := NewBenchmarkSession(bq, BenchmarkOptions())
	if err != nil {
		b.Fatal(err)
	}
	sp := s.space
	half := make([]int, len(sp.Plans())/2)
	for id := range half {
		half[id] = id
	}
	slots, _ := sp.PlanSchedule(half)
	for _, lanes := range []int{1, cost.Lanes} {
		b.Run(fmt.Sprintf("lanes=%d", lanes), func(b *testing.B) {
			cells, cut := make([]int, lanes), make([]int, lanes)
			for j := range cells {
				cells[j] = j * (sp.Grid.Size() / lanes)
				cut[j] = len(slots)
			}
			c := sp.BorrowCosts()
			defer sp.ReturnCosts(c)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Eval(cells, slots, cut)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lanes*len(slots)), "ns/node")
		})
	}
}

func BenchmarkVizFig7(b *testing.B) {
	microSetup(b)
	truth := cost.Location{0.04, 0.1}
	rec := telemetry.NewRecorder()
	if _, err := spillbound.NewRunner(microSpace).RunContext(telemetry.With(context.Background(), rec), engine.New(microSpace.Model, truth)); err != nil {
		b.Fatal(err)
	}
	events := rec.Events()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := viz.Fig7(microSpace, 2, events, truth); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLowerBoundGame(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := lowerbound.NewGame(6)
		res := g.Play(&rrStrategy{g: g})
		if !res.Completed {
			b.Fatal("strategy did not complete")
		}
	}
}

// rrStrategy is the matching Θ(D) strategy for the lower-bound bench.
type rrStrategy struct{ g *lowerbound.Game }

func (r *rrStrategy) Next(history []lowerbound.Step) (lowerbound.Action, bool) {
	probed := map[int]bool{}
	remaining := map[int]bool{}
	for k := 0; k < r.g.D; k++ {
		remaining[k] = true
	}
	for _, st := range history {
		if st.Action.Probe {
			probed[st.Action.Dim] = true
			if st.Obs.Completed && st.Obs.Learned == lowerbound.ColdSel {
				delete(remaining, st.Action.Dim)
			}
		}
	}
	if len(remaining) > 1 {
		for d := 0; d < r.g.D; d++ {
			if !probed[d] {
				return lowerbound.Action{Probe: true, Dim: d, Budget: (1 - r.g.Gamma/2) * r.g.C}, false
			}
		}
	}
	for k := range remaining {
		return lowerbound.Action{Probe: false, Plan: k, Budget: r.g.C}, false
	}
	return lowerbound.Action{}, true
}

func BenchmarkESSSaveLoad(b *testing.B) {
	microSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := microSpace.Save(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := ess.Load(&buf, microSpace.Model); err != nil {
			b.Fatal(err)
		}
	}
}

// --- selection-strategy benchmarks (perfbench tracks repro.selection_run_us) ---

var (
	selBenchOnce sync.Once
	selBenchSess *Session
)

// selBenchSetup builds one shared 2D session for the selection-strategy
// benchmarks.
func selBenchSetup(b *testing.B) {
	b.Helper()
	selBenchOnce.Do(func() {
		bq, ok := BenchmarkQueryByName("2D_EQ")
		if !ok {
			panic("2D_EQ missing from the benchmark workload")
		}
		opts := BenchmarkOptions()
		opts.GridRes = 10
		s, err := NewBenchmarkSession(bq, opts)
		if err != nil {
			panic(err)
		}
		selBenchSess = s
	})
}

// BenchmarkStrategySelect measures the selection strategies end to end:
// error-profile sampling, POSP plan scoring, and the budget-doubling ladder
// at a mis-estimated truth. The per-session selection memo is cleared every
// iteration so the chooser's cost is part of the measurement, not a one-off.
func BenchmarkStrategySelect(b *testing.B) {
	selBenchSetup(b)
	truth := Location{0.02, 0.3}
	for _, name := range []string{"penaltyaware", "probabilistic", "minmaxregret"} {
		algo := Algorithm(name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				selBenchSess.selMu.Lock()
				delete(selBenchSess.selections, name)
				selBenchSess.selMu.Unlock()
				if _, err := selBenchSess.Run(algo, truth); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkExtraEstimationStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(benchConfig())
		if _, err := lab.EstimationStudy(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtraReoptComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(benchConfig())
		if _, err := lab.ReoptComparison(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationAnorexicLambda(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(benchConfig())
		if _, err := lab.LambdaSensitivity(); err != nil {
			b.Fatal(err)
		}
	}
}
