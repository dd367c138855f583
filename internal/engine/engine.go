// Package engine simulates the modified database executor the paper built
// into PostgreSQL (Sec 6.1): plan execution under a cost budget with forced
// termination, spill-mode execution that runs only the subtree rooted at an
// error-prone predicate's node while discarding its output (Sec 3.1.2), and
// run-time selectivity monitoring that, on budget expiry, reports the
// largest selectivity consistent with the work performed — realizing the
// half-space pruning guarantee of Lemma 3.1.
//
// The simulation is cost-model-faithful: executing plan P at the true
// location q_a costs Cost(P, q_a) units; a run whose cost exceeds its budget
// is charged exactly the budget and aborted. All robustness guarantees in
// the paper are stated in these units, so the simulator exercises the same
// algorithmic behaviour as a wall-clock engine.
package engine

import (
	"context"
	"fmt"
	"math"

	"repro/internal/cost"
	"repro/internal/faults"
	"repro/internal/plan"
	"repro/internal/telemetry"
)

// Executor abstracts the execution substrate the discovery algorithms
// drive: budget-limited plan execution and spill-mode execution with
// selectivity monitoring. The cost-model simulator (*Engine) is the default
// implementation; rowexec.Adapter provides a row-at-a-time physical one.
type Executor interface {
	// Execute runs the plan under a cost budget.
	Execute(p *plan.Plan, budget float64) Result
	// ExecuteSpill runs the plan in spill-mode on the ESS dimension.
	ExecuteSpill(p *plan.Plan, dim int, budget float64) (SpillResult, bool)
}

// ContextExecutor is the execution contract of the discovery runners:
// cancellable, fault-aware execution. The context carries the caller's
// deadline, any injected fault plan (internal/faults) and the run's
// telemetry recorder, and errors — injected or real — surface instead of
// panicking. A plain Executor becomes one through AsContextExecutor.
type ContextExecutor interface {
	// ExecuteCtx is Execute honouring cancellation and fault injection.
	ExecuteCtx(ctx context.Context, p *plan.Plan, budget float64) (Result, error)
	// ExecuteSpillCtx is ExecuteSpill honouring cancellation and fault
	// injection.
	ExecuteSpillCtx(ctx context.Context, p *plan.Plan, dim int, budget float64) (SpillResult, bool, error)
}

// AsContextExecutor adapts any Executor to the context-aware interface:
// native ContextExecutors pass through; plain ones get a wrapper that checks
// cancellation before delegating (the execution itself is then atomic from
// the caller's point of view).
func AsContextExecutor(e Executor) ContextExecutor {
	if ce, ok := e.(ContextExecutor); ok {
		return ce
	}
	return plainCtxExecutor{e}
}

type plainCtxExecutor struct{ Executor }

func (w plainCtxExecutor) ExecuteCtx(ctx context.Context, p *plan.Plan, budget float64) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	return w.Execute(p, budget), nil
}

func (w plainCtxExecutor) ExecuteSpillCtx(ctx context.Context, p *plan.Plan, dim int, budget float64) (SpillResult, bool, error) {
	if err := ctx.Err(); err != nil {
		return SpillResult{}, false, err
	}
	res, ok := w.ExecuteSpill(p, dim, budget)
	return res, ok, nil
}

// Engine executes plans against a fixed true selectivity location q_a.
//
// An engine serves one run from one goroutine: it memoizes the model's
// cost of each plan at the truth, Model.Eval(p, Truth), on the plan's first
// regular or spill execution, and every later execution of that plan (at
// any budget) reuses it. Model and Truth must therefore stay fixed after
// the first execution. Only the model's cost is memoized: CostError, the
// fault plan's hooks and overrun factor, and the budget cut-off act on
// every execution.
type Engine struct {
	// Model is the shared cost model.
	Model *cost.Model
	// Truth is the actual selectivity location q_a, unknown to the
	// algorithms and only consulted by the simulated executor.
	Truth cost.Location
	// CostError optionally injects bounded cost-model error: every
	// execution's true cost is the model's prediction times this factor
	// (see DeterministicCostError and paper Sec 7). Nil disables injection.
	CostError CostErrorFn

	evals map[*plan.Plan]float64 // Model.Eval(p, Truth) per executed plan
}

// New returns an engine executing at the given true location. It panics on
// a truth/query dimensionality mismatch; callers handling untrusted input
// should use NewChecked.
func New(m *cost.Model, truth cost.Location) *Engine {
	e, err := NewChecked(m, truth)
	if err != nil {
		panic(err.Error())
	}
	return e
}

// NewChecked is New returning an error instead of panicking on invalid
// input — the constructor for request-driven paths (e.g. the HTTP server)
// where a bad payload must yield a 4xx, not a crash.
func NewChecked(m *cost.Model, truth cost.Location) (*Engine, error) {
	if len(truth) != m.Query.D() {
		return nil, fmt.Errorf("engine: truth has %d dims, query has %d epps", len(truth), m.Query.D())
	}
	for d, v := range truth {
		if v <= 0 || v > 1 {
			return nil, fmt.Errorf("engine: truth[%d] = %g outside (0,1]", d, v)
		}
	}
	return &Engine{Model: m, Truth: truth}, nil
}

// Result reports one budgeted (non-spill) execution.
type Result struct {
	// Completed is true if the plan ran to completion within its budget.
	Completed bool
	// Spent is the cost charged: the plan's full cost when completed, the
	// entire budget otherwise (partial results are discarded, per the
	// PlanBouquet protocol). It never passes the budget: ExecuteCtx cuts an
	// execution that an injected overrun would carry past its budget off
	// there, with ErrBudgetAborted (see classify.go).
	Spent float64
}

// Execute runs the plan with the given cost budget.
func (e *Engine) Execute(p *plan.Plan, budget float64) Result {
	c := e.execCost(p)
	if c <= budget {
		return Result{Completed: true, Spent: c}
	}
	return Result{Completed: false, Spent: budget}
}

// ExecuteCtx is Execute with cancellation, fault injection and forced
// termination: it checks the context before doing work, consults any fault
// plan attached to the context (latency, injected error or panic, cost-eval
// failure, budget overrun), and returns the failure instead of silently
// proceeding. An execution whose fault-inflated charge would pass its budget
// is cut off there: the charge is clamped to the budget, a budget_abort
// event follows its budget_spend, and the terminal ErrBudgetAborted is
// returned.
func (e *Engine) ExecuteCtx(ctx context.Context, p *plan.Plan, budget float64) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	fp := faults.From(ctx)
	if err := fp.BeforeExec(ctx); err != nil {
		return Result{}, err
	}
	if err := fp.OnCostEval(); err != nil {
		return Result{}, err
	}
	factor := fp.OverrunFactor()
	c := e.execCost(p) * factor
	res := Result{Completed: c <= budget, Spent: c}
	if !res.Completed {
		// Forced termination at budget expiry. A well-behaved operator is
		// charged exactly the budget; a misbehaving one (injected overrun
		// factor > 1) would spend past it before the termination lands.
		res.Spent = math.Min(c, budget*factor)
	}
	if res.Spent > budget {
		res.Spent = budget
		recordSpend(ctx, "exec", -1, budget, res.Spent, false, 0)
		recordAbort(ctx, "exec", -1, budget)
		return res, fmt.Errorf("engine: charge would exceed budget %.4g: %w", budget, ErrBudgetAborted)
	}
	recordSpend(ctx, "exec", -1, budget, res.Spent, res.Completed, 0)
	return res, nil
}

// recordSpend emits the engine-level BudgetSpend accounting event to any
// recorder on the context. An unbudgeted execution (budget +Inf) is recorded
// with Budget -1, keeping the event stream JSON-safe.
func recordSpend(ctx context.Context, mode string, dim int, budget, spent float64, completed bool, learned float64) {
	rec := telemetry.From(ctx)
	if rec == nil {
		return
	}
	if math.IsInf(budget, 1) {
		budget = -1
	}
	rec.Record(telemetry.Event{
		Kind: telemetry.BudgetSpend, Mode: mode, Dim: dim,
		Budget: budget, Spent: spent, Completed: completed, Learned: learned,
	})
}

// recordAbort emits the BudgetAbort event of an execution cut off at its
// budget; the clamped charge is the budget itself.
func recordAbort(ctx context.Context, mode string, dim int, budget float64) {
	telemetry.From(ctx).Record(telemetry.Event{
		Kind: telemetry.BudgetAbort, Dim: dim, Budget: budget, Spent: budget, Mode: mode,
	})
}

// ExecuteSpillCtx is ExecuteSpill with cancellation, fault injection and
// forced termination (see ExecuteCtx), and it checks every learned
// selectivity against the ESS. A value the space cannot contain (negative,
// non-finite, or past 1) records an ess_escape event and returns a terminal
// escape error (IsEscape). Aborted spills are checked too: their partial
// lower bound still feeds checkpoint state and Lemma 3.1 pruning, so a
// corrupted value must escape, not linger. The escape outranks the abort
// (both are terminal; only the escape reroutes the run).
func (e *Engine) ExecuteSpillCtx(ctx context.Context, p *plan.Plan, dim int, budget float64) (SpillResult, bool, error) {
	if err := ctx.Err(); err != nil {
		return SpillResult{}, false, err
	}
	fp := faults.From(ctx)
	if err := fp.BeforeExec(ctx); err != nil {
		return SpillResult{}, false, err
	}
	if err := fp.OnCostEval(); err != nil {
		return SpillResult{}, false, err
	}
	res, ok := e.executeSpill(p, dim, budget, fp.OverrunFactor())
	if !ok {
		return res, false, nil
	}
	res.Learned = fp.OnLearned(res.Learned)
	var err error
	if res.Spent > budget {
		// Cut off mid-spill: the monitoring lower bound gathered so far is
		// still valid (Lemma 3.1 is monotone in the budget), but the charge
		// is clamped to the budget.
		res.Spent = budget
		recordSpend(ctx, "spill", dim, budget, res.Spent, false, res.Learned)
		recordAbort(ctx, "spill", dim, budget)
		err = fmt.Errorf("engine: spill charge would exceed budget %.4g: %w", budget, ErrBudgetAborted)
	} else {
		recordSpend(ctx, "spill", dim, budget, res.Spent, res.Completed, res.Learned)
	}
	if !inESS(res.Learned) {
		telemetry.From(ctx).Record(telemetry.Event{
			Kind: telemetry.ESSEscape, Dim: dim, Budget: budget, Spent: res.Spent,
			Learned: res.Learned,
		})
		return res, true, &escapeError{dim: dim, learned: res.Learned}
	}
	return res, true, err
}

// SpillResult reports one spill-mode execution.
type SpillResult struct {
	// Completed is true if the epp subtree ran to completion, fully
	// learning the predicate's selectivity.
	Completed bool
	// Spent is the cost charged.
	Spent float64
	// Learned is the selectivity information gained for the spilled
	// dimension: the exact selectivity when Completed, otherwise the
	// largest selectivity whose subtree cost fits in the budget — a strict
	// lower bound on the true value (run-time monitoring, Lemma 3.1).
	Learned float64
}

// ExecuteSpill runs plan p in spill-mode on ESS dimension dim with the
// given budget: the plan is truncated to the subtree rooted at the node
// applying the dimension's predicate, the subtree's output is discarded,
// and the whole budget is devoted to learning that predicate's selectivity.
// ok is false if the plan does not apply the predicate (no spill possible).
func (e *Engine) ExecuteSpill(p *plan.Plan, dim int, budget float64) (SpillResult, bool) {
	return e.executeSpill(p, dim, budget, 1)
}

// executeSpill is ExecuteSpill with an extra charged-cost multiplier
// (fault-injected budget overrun; 1 when disabled).
func (e *Engine) executeSpill(p *plan.Plan, dim int, budget float64, overrun float64) (SpillResult, bool) {
	joinID := e.Model.Query.EPPs[dim]
	sub := p.Subtree(joinID)
	if sub == nil {
		return SpillResult{}, false
	}
	factor := e.errorFactor(p) * overrun
	full := e.truthCost(sub) * factor
	if full <= budget {
		return SpillResult{Completed: true, Spent: full, Learned: e.Truth[dim]}, true
	}
	// Budget expiry: a well-behaved subtree charges exactly the budget; an
	// overrunning one (overrun > 1) spends past it before the forced
	// termination lands, making the injected fault ledger-visible.
	return SpillResult{
		Completed: false,
		Spent:     math.Min(full, budget*overrun),
		Learned:   e.monitorBound(sub, dim, budget/factor),
	}, true
}

// monitorBound inverts the (monotone) subtree cost along dimension dim:
// the largest selectivity s <= truth[dim] with Cost(subtree, truth[dim:=s])
// <= budget. This simulates counting the rows the spilled operator produced
// before the budget expired. sub is rooted at the one node applying the
// dimension's predicate, so its children's cost is the same at every probe:
// they are costed once, and each probe re-costs only the root
// (cost.RootCost), bit-identical to a full Model.Eval.
func (e *Engine) monitorBound(sub *plan.Plan, dim int, budget float64) float64 {
	probe := e.Truth.Clone()
	root := e.Model.RootEval(sub, e.Truth)
	eval := func(s float64) float64 {
		probe[dim] = s
		return root.Eval(probe)
	}
	lo, hi := 0.0, e.Truth[dim]
	if eval(lo) > budget {
		// Even the zero-selectivity work exceeds the budget: nothing about
		// the dimension was learnt.
		return 0
	}
	for i := 0; i < 64 && hi-lo > 1e-16; i++ {
		mid := (lo + hi) / 2
		if eval(mid) <= budget {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
