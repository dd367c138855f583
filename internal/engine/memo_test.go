package engine

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/cost"
	"repro/internal/faults"
	"repro/internal/plan"
)

// memoBudgets are budgets around the plan's cost c: well under, just
// under, exactly at, just over and far over it, and unbudgeted.
func memoBudgets(c float64) []float64 {
	return []float64{c / 64, c / 2, c * (1 - 1e-12), c, c * (1 + 1e-12), c * 3, math.Inf(1)}
}

// TestMemoizedExecutionsMatchFreshEngine executes one plan again and again
// on one engine, regular and spill, at budgets in both orders around its
// cost, and requires every result to equal a fresh engine's for the same
// execution: the memoized cost at the truth is the cost the model gives.
func TestMemoizedExecutionsMatchFreshEngine(t *testing.T) {
	m := testModel(t)
	for _, truth := range []cost.Location{{1e-4, 1e-4}, {1e-2, 0.3}, {0.7, 1}} {
		p, c := optimalPlanAt(t, m, truth)
		spillFull := make([]float64, m.Query.D())
		for dim := range spillFull {
			res, ok := New(m, truth).ExecuteSpill(p, dim, math.Inf(1))
			if !ok {
				t.Fatalf("truth %v: optimal plan cannot spill on dim %d", truth, dim)
			}
			spillFull[dim] = res.Spent
		}
		shared := New(m, truth)
		ctx := context.Background()
		for pass := 0; pass < 2; pass++ {
			budgets := memoBudgets(c)
			if pass == 1 {
				for i, j := 0, len(budgets)-1; i < j; i, j = i+1, j-1 {
					budgets[i], budgets[j] = budgets[j], budgets[i]
				}
			}
			for _, b := range budgets {
				if got, want := shared.Execute(p, b), New(m, truth).Execute(p, b); got != want {
					t.Fatalf("truth %v budget %g: Execute %+v, fresh engine %+v", truth, b, got, want)
				}
				got, err := shared.ExecuteCtx(ctx, p, b)
				if want := New(m, truth).Execute(p, b); err != nil || got != want {
					t.Fatalf("truth %v budget %g: ExecuteCtx %+v (%v), fresh engine %+v", truth, b, got, err, want)
				}
			}
			for dim, full := range spillFull {
				for _, b := range memoBudgets(full) {
					got, gotOK := shared.ExecuteSpill(p, dim, b)
					want, wantOK := New(m, truth).ExecuteSpill(p, dim, b)
					if got != want || gotOK != wantOK {
						t.Fatalf("truth %v dim %d budget %g: ExecuteSpill %+v, fresh engine %+v", truth, dim, b, got, want)
					}
					got, gotOK, err := shared.ExecuteSpillCtx(ctx, p, dim, b)
					if err != nil || got != want || gotOK != wantOK {
						t.Fatalf("truth %v dim %d budget %g: ExecuteSpillCtx %+v (%v), fresh engine %+v", truth, dim, b, got, err, want)
					}
				}
			}
		}
	}
}

// TestMemoKeepsPerExecutionFactors swaps CostError between executions of
// one plan on one engine, and runs it under an overrunning fault plan: the
// factor in force at each execution, not the one at the first, decides
// the charge.
func TestMemoKeepsPerExecutionFactors(t *testing.T) {
	m := testModel(t)
	truth := cost.Location{1e-3, 1e-3}
	p, c := optimalPlanAt(t, m, truth)
	sub := p.Subtree(m.Query.EPPs[0])
	subCost := m.Eval(sub, truth)
	e := New(m, truth)
	e.Execute(p, math.Inf(1))
	e.ExecuteSpill(p, 0, math.Inf(1))
	for _, f := range []float64{1.5, 0.5, 1, 2} {
		e.CostError = func(*plan.Plan) float64 { return f }
		if res := e.Execute(p, math.Inf(1)); !res.Completed || math.Abs(res.Spent-c*f) > 1e-9*c {
			t.Errorf("CostError %g: Execute %+v, want spent %g", f, res, c*f)
		}
		if res, _ := e.ExecuteSpill(p, 0, math.Inf(1)); !res.Completed || math.Abs(res.Spent-subCost*f) > 1e-9*subCost {
			t.Errorf("CostError %g: ExecuteSpill %+v, want spent %g", f, res, subCost*f)
		}
		if res := e.Execute(p, c*f/2); res.Completed || res.Spent != c*f/2 {
			t.Errorf("CostError %g: Execute at half cost %+v, want the budget charged", f, res)
		}
	}

	e.CostError = nil
	ctx := faults.With(context.Background(), faults.Knobs{BudgetOverrun: 2}.Plan())
	for i := 0; i < 3; i++ {
		res, err := e.ExecuteCtx(ctx, p, c/4)
		if err != nil || res.Completed || res.Spent != c/2 {
			t.Errorf("overrun execution %d: %+v (%v), want spent %g", i, res, err, c/2)
		}
		sres, _, err := e.ExecuteSpillCtx(ctx, p, 0, subCost/4)
		if err != nil || sres.Completed || sres.Spent != subCost/2 {
			t.Errorf("overrun spill %d: %+v (%v), want spent %g", i, sres, err, subCost/2)
		}
	}
}

// TestMemoKeepsFaultHooksPerExecution runs one plan repeatedly on one
// engine under fault plans whose counters fire on a later execution:
// BeforeExec and OnCostEval still see every execution, memo hits
// included.
func TestMemoKeepsFaultHooksPerExecution(t *testing.T) {
	m := testModel(t)
	truth := cost.Location{1e-3, 1e-3}
	p, c := optimalPlanAt(t, m, truth)
	for _, k := range []faults.Knobs{{FailExecAt: 3}, {FailCostEvalAt: 3}} {
		fp := k.Plan()
		e := New(m, truth)
		ctx := faults.With(context.Background(), fp)
		for i := 1; i <= 4; i++ {
			var err error
			if i%2 == 0 {
				_, _, err = e.ExecuteSpillCtx(ctx, p, 1, c)
			} else {
				_, err = e.ExecuteCtx(ctx, p, c)
			}
			if injected := errors.Is(err, faults.ErrInjected); injected != (i == 3) {
				t.Errorf("%+v: execution %d error %v", k, i, err)
			}
		}
		if fp.Execs() != 4 || fp.Injected() != 1 {
			t.Errorf("%+v: %d executions, %d injected; want 4 and 1", k, fp.Execs(), fp.Injected())
		}
	}
}
