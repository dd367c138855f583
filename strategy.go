// The strategy set behind Session.Run, Sweep, the scenario sweeps, the
// robustness atlas, and the /v1 API is fixed: the paper's discovery
// algorithms (PlanBouquet, SpillBound, AlignedBound), the Native baseline,
// and the non-discovery selection strategies (penalty-aware, probabilistic,
// minmax-regret — see selection.go); Algorithm names one of them.

package repro

import (
	"context"
	"fmt"
	"maps"
	"math"
	"strings"

	"repro/internal/aligned"
	"repro/internal/bouquet"
	"repro/internal/engine"
	"repro/internal/runstate"
	"repro/internal/spillbound"
	"repro/internal/telemetry"
)

// StrategyInfo describes a strategy for listings (the rqp CLI,
// GET /v1/strategies) and capability gating.
type StrategyInfo struct {
	// Name is the strategy's canonical name (lowercase, e.g. "spillbound").
	Name string `json:"name"`
	// Kind classifies the strategy: "baseline" (run the estimate-optimal
	// plan), "discovery" (contour-budgeted selectivity discovery), or
	// "selection" (robust a-priori plan selection executed under a
	// budget-doubling ladder).
	Kind string `json:"kind"`
	// Guarantee is the human-readable MSO guarantee formula ("D^2+3D",
	// "none", ...); Session.Guarantee reports the session's numeric value.
	Guarantee string `json:"guarantee"`
	// Resumable reports whether the strategy checkpoints monotone progress
	// through internal/runstate and can continue from a crash snapshot
	// (RunDurable/ResumeRun accept only resumable strategies).
	Resumable bool `json:"resumable"`
	// Params documents the strategy's tuning knobs and their defaults.
	Params map[string]string `json:"params,omitempty"`
}

// strategyRun is the execution context handed to a strategy's run: the
// session, the hidden truth, the resilient executor stack (engine → retry),
// the run's telemetry recorder, and any crash-resume state. Budget
// semantics: every execution must go through execute (or the internal
// runners), which charges min(cost, budget) — never run plans outside the
// ledger, or MSO accounting breaks.
type strategyRun struct {
	sess   *Session
	rex    engine.ContextExecutor
	truth  Location
	resume *runstate.Discovery
	rec    *telemetry.Recorder
}

// execute runs one budgeted step of the POSP plan with the given 1-based
// step index through the resilient executor stack, recording the plan_exec
// event that charges it to the run's ledger. It returns the charged cost and
// whether the plan completed within budget; errors (cancellation, injected
// faults past the retries, budget aborts) propagate to the driver's
// degradation ladder.
func (r *strategyRun) execute(ctx context.Context, step, planID int, budget float64) (spent float64, completed bool, err error) {
	res, err := r.rex.ExecuteCtx(ctx, r.sess.space.Plans()[planID], budget)
	if err != nil {
		return res.Spent, false, err
	}
	r.rec.Record(telemetry.Event{
		Kind: telemetry.PlanExec, Contour: step, Dim: -1, PlanID: planID,
		Budget: budget, Spent: res.Spent, Completed: res.Completed,
	})
	return res.Spent, res.Completed, nil
}

// Strategy is one processing strategy of the fixed set: its descriptor,
// its numeric MSO guarantee for a session (+Inf when it offers none), and
// its run, which processes one query at the run's hidden truth, drives
// every execution through the strategyRun's budgeted executor and returns
// the charged cost (this incarnation; the driver adds any resumed ledger
// base). The budgeted executions behind that cost are the charged events of
// the run's stream, from which the driver derives Steps, SubOpt, the trace
// and the degradation bookkeeping. A Strategy holds no state: one value
// serves every session concurrently.
type Strategy struct {
	info      StrategyInfo
	guarantee func(*Session) float64
	run       func(context.Context, *strategyRun) (float64, error)
}

// Info describes the strategy (name, kind, guarantee formula,
// capabilities). Params is the caller's own copy.
func (st *Strategy) Info() StrategyInfo {
	info := st.info
	info.Params = maps.Clone(info.Params)
	return info
}

// SweepRun returns the evaluator whole-space sweeps use: a function from
// true location to total charged cost, safe to call concurrently across
// swept locations. It is the strategy's own run at the truth over the bare
// cost-model engine, with no fault plan, retry, telemetry or durability
// (sweeps measure the strategy, not the resilience ladder), so at every
// truth where a run completes cleanly, the sweep's cost equals the run's
// TotalCost, and MSO and ASO (Eq. 4 and 8) measure the strategy a run
// executes.
func (st *Strategy) SweepRun(s *Session) func(truth Location) float64 {
	return func(truth Location) float64 {
		cost, _ := st.run(context.Background(), &strategyRun{sess: s, rex: engine.New(s.model, truth), truth: truth})
		return cost
	}
}

// strategyTable is every strategy, in name order: the Native baseline, the
// paper's discovery algorithms and the selection family (selection.go),
// whose RunResults, event streams and checkpoints are golden-pinned
// (TestStrategyGoldenEquivalence). It never changes, so reading it takes no
// lock.
var strategyTable = []Strategy{
	{
		info: StrategyInfo{
			Name: "alignedbound", Kind: "discovery", Guarantee: "[2D+2, D^2+3D]",
			Resumable: true,
		},
		guarantee: func(s *Session) float64 { return aligned.GuaranteeUpper(s.D()) },
		run:       runAlignedBound,
	},
	selection("minmaxregret", map[string]string{
		"factor": "100x per-dimension uncertainty box (estimate plus 2^D corners)",
	}, chooseMinmaxRegret),
	{
		info:      StrategyInfo{Name: "native", Kind: "baseline", Guarantee: "none"},
		guarantee: noGuarantee,
		run:       runNative,
	},
	selection("penaltyaware", map[string]string{
		"samples": "64 log-normal error-profile samples (seeded by Options.SweepSeed)",
		"sigma":   "1.0 decades of multiplicative estimation error",
		"alpha":   "0.5 worst-case weight in the penalty blend",
	}, choosePenaltyAware),
	{
		info: StrategyInfo{
			Name: "planbouquet", Kind: "discovery", Guarantee: "4(1+lambda)rho",
			Resumable: true,
			Params:    map[string]string{"lambda": "anorexic reduction threshold (Options.ReductionLambda, default 0.2)"},
		},
		guarantee: func(s *Session) float64 { return s.pbGuarantee },
		run:       runPlanBouquet,
	},
	selection("probabilistic", map[string]string{
		"samples": "64 log-normal selectivity samples (seeded by Options.SweepSeed)",
		"sigma":   "1.0 decades of multiplicative estimation error",
	}, chooseProbabilistic),
	{
		info: StrategyInfo{
			Name: "spillbound", Kind: "discovery", Guarantee: "D^2+3D",
			Resumable: true,
		},
		guarantee: func(s *Session) float64 { return spillbound.Guarantee(s.D()) },
		run:       runSpillBound,
	},
}

// noGuarantee is the guarantee of a strategy that offers none.
func noGuarantee(*Session) float64 { return math.Inf(1) }

// LookupStrategy returns the strategy with the canonical name.
func LookupStrategy(name string) (*Strategy, bool) {
	for i := range strategyTable {
		if strategyTable[i].info.Name == name {
			return &strategyTable[i], true
		}
	}
	return nil, false
}

// strategyNames returns the canonical strategy names, sorted.
func strategyNames() []string {
	names := make([]string, len(strategyTable))
	for i := range strategyTable {
		names[i] = strategyTable[i].info.Name
	}
	return names
}

// Strategies lists every strategy's descriptor, sorted by name.
func Strategies() []StrategyInfo {
	infos := make([]StrategyInfo, len(strategyTable))
	for i := range strategyTable {
		infos[i] = strategyTable[i].Info()
	}
	return infos
}

// ParseStrategy resolves a strategy name, as LookupStrategy does, but
// reports an unknown name as an error that lists every strategy.
func ParseStrategy(name string) (*Strategy, error) {
	st, ok := LookupStrategy(name)
	if !ok {
		return nil, fmt.Errorf("repro: unknown strategy %q (registered: %s)",
			name, strings.Join(strategyNames(), ", "))
	}
	return st, nil
}

// runNative is the traditional optimize-then-execute baseline: run the
// estimate-optimal plan unbudgeted, whatever the truth turns out to be.
func runNative(ctx context.Context, r *strategyRun) (float64, error) {
	s := r.sess
	total := s.model.Eval(s.nativePlan(), r.truth)
	r.rec.Record(telemetry.Event{
		Kind: telemetry.PlanExec, Dim: -1, Mode: "native",
		Location: s.EstimateLocation(), Spent: total, Completed: true,
	})
	return total, nil
}

// runPlanBouquet is Dutt & Haritsa's contour-budgeted discovery baseline
// over the anorexically reduced plan diagram.
func runPlanBouquet(ctx context.Context, r *strategyRun) (float64, error) {
	s := r.sess
	// PlanBouquet's monotone state is the contour index alone (no
	// half-space pruning), so resume reduces to a later start contour.
	costs := s.space.ContourCosts(s.opts.ContourRatio)
	startContour := 0
	if r.resume != nil {
		startContour = min(r.resume.Contour, len(costs)-1)
	}
	out, err := bouquet.RunContext(ctx, s.diag, r.rex, costs, startContour)
	return out.TotalCost, err
}

// runSpillBound is the paper's core algorithm (MSO ≤ D²+3D).
func runSpillBound(ctx context.Context, r *strategyRun) (float64, error) {
	s := r.sess
	out, err := (&spillbound.Runner{Space: s.space, Ratio: s.opts.ContourRatio, Resume: r.resume}).RunContext(ctx, r.rex)
	return out.TotalCost, err
}

// runAlignedBound is the alignment-exploiting SpillBound variant
// (MSO ∈ [2D+2, D²+3D]).
func runAlignedBound(ctx context.Context, r *strategyRun) (float64, error) {
	s := r.sess
	out, err := (&aligned.Runner{Space: s.space, Ratio: s.opts.ContourRatio, Resume: r.resume}).RunContext(ctx, r.rex)
	return out.TotalCost, err
}
