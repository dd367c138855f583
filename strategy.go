// Strategy is the pluggable plan-selection/processing interface behind
// Session.Run, Sweep, the scenario sweeps, the robustness atlas, and the
// /v1 API. The paper's discovery algorithms (PlanBouquet, SpillBound,
// AlignedBound), the Native baseline, and the non-discovery selection
// strategies (penalty-aware, probabilistic, minmax-regret — see
// selection.go) are all registered implementations; Algorithm is a thin
// compatibility shim over registry lookup.
package repro

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

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

// StrategyInfo describes a registered strategy for listings (the rqp CLI,
// GET /v1/strategies) and capability gating.
type StrategyInfo struct {
	// Name is the canonical registry name (lowercase, e.g. "spillbound").
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
// every execution must go through Execute (or the internal runners), which
// charges min(cost, budget) — never run plans outside the ledger, or MSO
// accounting breaks.
type StrategyRun struct {
	sess   *Session
	rex    runExecutor
	truth  Location
	resume *runstate.Discovery
	rec    *telemetry.Recorder
}

// Session returns the owning session (grid shape, POSP, estimate, oracle).
func (r *StrategyRun) Session() *Session { return r.sess }

// Truth returns the hidden true selectivity location the run executes at
// (nil on a physical run, whose truth is emergent from the data).
// Strategies must not use it for plan choice — only pass it to executions.
func (r *StrategyRun) Truth() Location { return r.truth }

// Resume returns the crash-checkpoint restart state: the step/contour index
// to restart from and whether the run is a resume at all. The carried-over
// budget ledger is added by the driver, not the strategy.
func (r *StrategyRun) Resume() (step int, ok bool) {
	if r.resume == nil {
		return 0, false
	}
	return r.resume.Contour, true
}

// Execute runs one budgeted step of the POSP plan with the given 1-based
// step index through the resilient executor stack, recording the plan_exec
// event that charges it to the run's ledger. It returns the charged cost and
// whether the plan completed within budget; errors (cancellation, injected
// faults past the retries, budget aborts) propagate to the driver's
// degradation ladder.
func (r *StrategyRun) Execute(ctx context.Context, step, planID int, budget float64) (spent float64, completed bool, err error) {
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

// Checkpoint marks a step boundary for durable runs: the runstate tracker
// (if any) folds the events recorded since its last checkpoint and persists
// a restart snapshot for the 0-based step about to run. Plain runs pay two
// context lookups.
func (r *StrategyRun) Checkpoint(ctx context.Context, step int) error {
	return runstate.Checkpoint(ctx, step)
}

// Strategy is one pluggable processing strategy. Implementations must be
// stateless or internally synchronized: one registered value serves every
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

// The strategy registry. Built-ins register at init; external packages add
// strategies via RegisterStrategy before building sessions.
var (
	strategyMu  sync.RWMutex
	strategyReg = make(map[string]Strategy)
)

// RegisterStrategy adds a strategy to the registry. The name must be
// non-empty lowercase and not already taken. Safe for concurrent use.
func RegisterStrategy(st Strategy) error {
	name := st.Info().Name
	if name == "" || name != strings.ToLower(name) {
		return fmt.Errorf("repro: strategy name %q must be non-empty lowercase", name)
	}
	strategyMu.Lock()
	defer strategyMu.Unlock()
	if _, dup := strategyReg[name]; dup {
		return fmt.Errorf("repro: strategy %q already registered", name)
	}
	strategyReg[name] = st
	return nil
}

// mustRegisterStrategy registers a built-in, panicking on conflict.
func mustRegisterStrategy(st Strategy) {
	if err := RegisterStrategy(st); err != nil {
		panic(err.Error())
	}
}

// LookupStrategy returns the strategy registered under the canonical name.
func LookupStrategy(name string) (Strategy, bool) {
	strategyMu.RLock()
	defer strategyMu.RUnlock()
	st, ok := strategyReg[name]
	return st, ok
}

// StrategyNames returns the canonical registered names, sorted.
func StrategyNames() []string {
	strategyMu.RLock()
	defer strategyMu.RUnlock()
	names := make([]string, 0, len(strategyReg))
	for name := range strategyReg {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Strategies lists every registered strategy's descriptor, sorted by name.
func Strategies() []StrategyInfo {
	strategyMu.RLock()
	infos := make([]StrategyInfo, 0, len(strategyReg))
	for _, st := range strategyReg {
		infos = append(infos, st.Info())
	}
	strategyMu.RUnlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// ParseStrategy resolves a registered strategy name, as LookupStrategy does,
// but reports an unknown name as an error that lists the registry.
func ParseStrategy(name string) (Strategy, error) {
	st, ok := LookupStrategy(name)
	if !ok {
		return nil, fmt.Errorf("repro: unknown strategy %q (registered: %s)",
			name, strings.Join(StrategyNames(), ", "))
	}
	return st, nil
}

// The built-in strategies: the Native baseline and the paper's discovery
// algorithms, ported verbatim from the pre-registry Session switch — their
// RunResults, event streams and checkpoints are golden-pinned
// (TestStrategyGoldenEquivalence) to stay byte-identical through the
// redesign.
func init() {
	mustRegisterStrategy(nativeStrategy{})
	mustRegisterStrategy(planBouquetStrategy{})
	mustRegisterStrategy(spillBoundStrategy{})
	mustRegisterStrategy(alignedBoundStrategy{})
	registerSelectionStrategies()
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
