// Strategy is the plan-selection/processing interface behind Session.Run,
// Sweep, the scenario sweeps, the robustness atlas, and the /v1 API. The
// set is fixed: the paper's discovery algorithms (PlanBouquet, SpillBound,
// AlignedBound), the Native baseline, and the non-discovery selection
// strategies (penalty-aware, probabilistic, minmax-regret — see
// selection.go); Algorithm names one of them.
package repro

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/aligned"
	"repro/internal/bouquet"
	"repro/internal/engine"
	"repro/internal/runstate"
	"repro/internal/spillbound"
	"repro/internal/telemetry"
)

// runExecutor is the resilient executor stack handed to strategies
// (engine → retry).
type runExecutor = engine.ContextExecutor

// sweepByRun is every built-in strategy's SweepRun: the strategy's own Run
// at the truth over the bare cost-model engine, with no fault plan, retry,
// telemetry or durability (sweeps measure the strategy, not the resilience
// ladder). A sweep therefore costs exactly what a clean run costs.
func sweepByRun(st Strategy, s *Session) func(Location) float64 {
	return func(truth Location) float64 {
		out, _ := st.Run(context.Background(), &StrategyRun{sess: s, rex: engine.New(s.model, truth), truth: truth})
		return out.TotalCost
	}
}

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

// StrategyOutcome is what a strategy's Run reports back to the session
// driver: the charged cost. The budgeted executions behind it are the
// charged events of the run's stream, from which the driver derives Steps,
// SubOpt, the trace and the degradation bookkeeping.
type StrategyOutcome struct {
	// TotalCost is the strategy's total charged cost (this incarnation;
	// the driver adds any resumed ledger base).
	TotalCost float64
}

// StrategyRun is the execution context handed to Strategy.Run: the session,
// the hidden truth, the resilient executor stack (engine → retry), the
// run's telemetry recorder, and any crash-resume state. Budget semantics:
// every execution must go through execute (or the internal runners), which
// charges min(cost, budget) — never run plans outside the ledger, or MSO
// accounting breaks.
type StrategyRun struct {
	sess   *Session
	rex    runExecutor
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
func (r *StrategyRun) execute(ctx context.Context, step, planID int, budget float64) (spent float64, completed bool, err error) {
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

// Strategy is one processing strategy of the fixed set. Implementations
// must be stateless or internally synchronized: one value serves every
// session concurrently.
type Strategy interface {
	// Info describes the strategy (name, kind, guarantee formula,
	// capabilities).
	Info() StrategyInfo
	// Guarantee returns the numeric MSO guarantee for the session
	// (+Inf when the strategy offers none).
	Guarantee(s *Session) float64
	// Run processes one query at the run's hidden truth, driving every
	// execution through the StrategyRun's budgeted executor.
	Run(ctx context.Context, r *StrategyRun) (StrategyOutcome, error)
	// SweepRun returns the evaluator whole-space sweeps use: a function
	// from true location to total charged cost, called concurrently across
	// swept locations. Contract: at every truth where Run completes cleanly,
	// the sweep's cost equals Run's TotalCost, so MSO and ASO (Eq. 4 and 8)
	// measure the strategy a run executes. The built-ins all return
	// sweepByRun, which derives it from Run.
	SweepRun(s *Session) func(truth Location) float64
}

// strategyTable is every strategy, sorted by name: the Native baseline, the
// paper's discovery algorithms and the selection family (selection.go),
// whose RunResults, event streams and checkpoints are golden-pinned
// (TestStrategyGoldenEquivalence). It is built once and never changes, so
// reading it takes no lock.
var strategyTable = func() []namedStrategy {
	var t []namedStrategy
	for _, st := range append([]Strategy{nativeStrategy{}, planBouquetStrategy{}, spillBoundStrategy{}, alignedBoundStrategy{}}, selectionStrategies...) {
		t = append(t, namedStrategy{st.Info().Name, st})
	}
	sort.Slice(t, func(i, j int) bool { return t[i].name < t[j].name })
	return t
}()

// namedStrategy is one strategyTable entry: a strategy under its Info name.
type namedStrategy struct {
	name string
	st   Strategy
}

// LookupStrategy returns the strategy with the canonical name.
func LookupStrategy(name string) (Strategy, bool) {
	for _, e := range strategyTable {
		if e.name == name {
			return e.st, true
		}
	}
	return nil, false
}

// strategyNames returns the canonical strategy names, sorted.
func strategyNames() []string {
	names := make([]string, len(strategyTable))
	for i, e := range strategyTable {
		names[i] = e.name
	}
	return names
}

// Strategies lists every strategy's descriptor, sorted by name.
func Strategies() []StrategyInfo {
	infos := make([]StrategyInfo, len(strategyTable))
	for i, e := range strategyTable {
		infos[i] = e.st.Info()
	}
	return infos
}

// ParseStrategy resolves a strategy name, as LookupStrategy does, but
// reports an unknown name as an error that lists every strategy.
func ParseStrategy(name string) (Strategy, error) {
	st, ok := LookupStrategy(name)
	if !ok {
		return nil, fmt.Errorf("repro: unknown strategy %q (registered: %s)",
			name, strings.Join(strategyNames(), ", "))
	}
	return st, nil
}

// nativeStrategy is the traditional optimize-then-execute baseline: run the
// estimate-optimal plan unbudgeted, whatever the truth turns out to be.
type nativeStrategy struct{}

func (nativeStrategy) Info() StrategyInfo {
	return StrategyInfo{
		Name: "native", Kind: "baseline", Guarantee: "none",
	}
}

func (nativeStrategy) Guarantee(*Session) float64 { return math.Inf(1) }

func (nativeStrategy) Run(ctx context.Context, r *StrategyRun) (StrategyOutcome, error) {
	s := r.sess
	total := s.model.Eval(s.nativePlan(), r.truth)
	r.rec.Record(telemetry.Event{
		Kind: telemetry.PlanExec, Dim: -1, Mode: "native",
		Location: s.EstimateLocation(), Spent: total, Completed: true,
	})
	return StrategyOutcome{TotalCost: total}, nil
}

func (st nativeStrategy) SweepRun(s *Session) func(Location) float64 { return sweepByRun(st, s) }

// planBouquetStrategy is Dutt & Haritsa's contour-budgeted discovery
// baseline over the anorexically reduced plan diagram.
type planBouquetStrategy struct{}

func (planBouquetStrategy) Info() StrategyInfo {
	return StrategyInfo{
		Name: "planbouquet", Kind: "discovery", Guarantee: "4(1+lambda)rho",
		Resumable: true,
		Params:    map[string]string{"lambda": "anorexic reduction threshold (Options.ReductionLambda, default 0.2)"},
	}
}

func (planBouquetStrategy) Guarantee(s *Session) float64 { return s.pbGuarantee }

func (planBouquetStrategy) Run(ctx context.Context, r *StrategyRun) (StrategyOutcome, error) {
	s := r.sess
	// PlanBouquet's monotone state is the contour index alone (no
	// half-space pruning), so resume reduces to a later start contour.
	costs := s.space.ContourCosts(s.opts.ContourRatio)
	startContour := 0
	if r.resume != nil {
		startContour = min(r.resume.Contour, len(costs)-1)
	}
	out, rerr := bouquet.RunContext(ctx, s.diag, r.rex, costs, startContour)
	return StrategyOutcome{TotalCost: out.TotalCost}, rerr
}

func (st planBouquetStrategy) SweepRun(s *Session) func(Location) float64 { return sweepByRun(st, s) }

// spillBoundStrategy is the paper's core algorithm (MSO ≤ D²+3D).
type spillBoundStrategy struct{}

func (spillBoundStrategy) Info() StrategyInfo {
	return StrategyInfo{
		Name: "spillbound", Kind: "discovery", Guarantee: "D^2+3D",
		Resumable: true,
	}
}

func (spillBoundStrategy) Guarantee(s *Session) float64 { return spillbound.Guarantee(s.D()) }

func (spillBoundStrategy) Run(ctx context.Context, r *StrategyRun) (StrategyOutcome, error) {
	s := r.sess
	out, rerr := (&spillbound.Runner{Space: s.space, Ratio: s.opts.ContourRatio, Resume: r.resume}).RunContext(ctx, r.rex)
	return StrategyOutcome{TotalCost: out.TotalCost}, rerr
}

func (st spillBoundStrategy) SweepRun(s *Session) func(Location) float64 { return sweepByRun(st, s) }

// alignedBoundStrategy is the alignment-exploiting SpillBound variant
// (MSO ∈ [2D+2, D²+3D]).
type alignedBoundStrategy struct{}

func (alignedBoundStrategy) Info() StrategyInfo {
	return StrategyInfo{
		Name: "alignedbound", Kind: "discovery", Guarantee: "[2D+2, D^2+3D]",
		Resumable: true,
	}
}

func (alignedBoundStrategy) Guarantee(s *Session) float64 { return aligned.GuaranteeUpper(s.D()) }

func (alignedBoundStrategy) Run(ctx context.Context, r *StrategyRun) (StrategyOutcome, error) {
	s := r.sess
	out, rerr := (&aligned.Runner{Space: s.space, Ratio: s.opts.ContourRatio, Resume: r.resume}).RunContext(ctx, r.rex)
	return StrategyOutcome{TotalCost: out.TotalCost}, rerr
}

func (st alignedBoundStrategy) SweepRun(s *Session) func(Location) float64 { return sweepByRun(st, s) }
