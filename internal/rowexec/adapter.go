package rowexec

import (
	"context"

	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/telemetry"
)

// Adapter exposes the row engine through the engine.ContextExecutor
// interface, so PlanBouquet, SpillBound and AlignedBound can drive real
// tuple-at-a-time executions instead of the cost-model simulation: budgets
// are enforced by the work meter, and spill-mode learning comes from
// counting actual join output rows. This is the closest analogue of the paper's modified
// PostgreSQL engine.
type Adapter struct {
	// E is the underlying row engine.
	E *Engine
}

var _ engine.ContextExecutor = (*Adapter)(nil)

// ExecuteCtx runs the plan on real rows under the cost budget, with
// cancellation (the row loop polls the context).
func (a *Adapter) ExecuteCtx(ctx context.Context, p *plan.Plan, budget float64) (engine.Result, error) {
	res, err := a.E.RunContext(ctx, p, budget)
	if err != nil {
		if ctx.Err() != nil {
			return engine.Result{}, err
		}
		// Non-budget, non-cancellation errors surface as incomplete
		// executions charged their budget; the discovery loops treat them
		// like expiries.
		a.recordSpend(ctx, -1, budget, budget, false, 0)
		return engine.Result{Completed: false, Spent: budget}, nil
	}
	a.recordSpend(ctx, -1, budget, res.Spent, res.Completed, 0)
	return engine.Result{Completed: res.Completed, Spent: res.Spent}, nil
}

// recordSpend emits the row engine's BudgetSpend accounting event to any
// recorder on the context, mirroring the cost-model simulator's.
func (a *Adapter) recordSpend(ctx context.Context, dim int, budget, spent float64, completed bool, learned float64) {
	telemetry.From(ctx).Record(telemetry.Event{
		Kind: telemetry.BudgetSpend, Mode: "rowexec", Dim: dim,
		Budget: budget, Spent: spent, Completed: completed, Learned: learned,
	})
}

// ExecuteSpillCtx runs the epp subtree on real rows, with cancellation,
// deriving the learnt selectivity from the observed output count: exact on
// completion, the partial observation otherwise (a conservative lower
// bound — output so far over the input cross product).
func (a *Adapter) ExecuteSpillCtx(ctx context.Context, p *plan.Plan, dim int, budget float64) (engine.SpillResult, bool, error) {
	joinID := a.E.Query.EPPs[dim]
	if p.FindJoinNode(joinID) == nil {
		return engine.SpillResult{}, false, nil
	}
	res, st, err := a.E.SpillRunContext(ctx, p, dim, budget)
	if err != nil {
		if ctx.Err() != nil {
			return engine.SpillResult{}, false, err
		}
		return engine.SpillResult{}, false, nil
	}
	out := engine.SpillResult{
		Completed: res.Completed,
		Spent:     res.Spent,
	}
	if res.Completed {
		out.Learned = ObservedSelectivity(st)
	} else {
		out.Learned = partialLearned(res, p, joinID)
	}
	a.recordSpend(ctx, dim, budget, out.Spent, out.Completed, out.Learned)
	return out, true, nil
}

// partialLearned derives the monitoring lower bound from the counts
// accumulated before the budget expired. Inputs may be partially consumed,
// so the observation is taken against full input cardinalities.
func partialLearned(res Result, p *plan.Plan, joinID int) float64 {
	node := subRootStats(res, p, joinID)
	if node == nil {
		return 0
	}
	full := &NodeStats{
		OutRows:   node.OutRows,
		LeftRows:  maxInt64(node.LeftRows, 1),
		RightRows: maxInt64(node.RightRows, 1),
	}
	return ObservedSelectivity(full)
}

func subRootStats(res Result, p *plan.Plan, joinID int) *NodeStats {
	n := p.FindJoinNode(joinID)
	if n == nil {
		return nil
	}
	return res.Stats[n]
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
