package engine

import (
	"context"
	"math"
	"slices"
	"testing"

	"repro/internal/cost"
	"repro/internal/faults"
	"repro/internal/telemetry"
)

// faulted returns a context carrying the fault knobs and a fresh recorder.
func faulted(k faults.Knobs) (context.Context, *telemetry.Recorder) {
	return recorded(faults.With(context.Background(), k.Plan()))
}

// kinds lists the recorded events' kinds in order.
func kinds(rec *telemetry.Recorder) []telemetry.Kind {
	var out []telemetry.Kind
	for _, ev := range rec.Events() {
		out = append(out, ev.Kind)
	}
	return out
}

// TestOverrunAbortsAtBudget runs a plan and its spill under a 2× overrun at
// 1.5× their cost: both are cut off at the budget, terminally, with
// budget_spend then budget_abort recorded at the clamped charge.
func TestOverrunAbortsAtBudget(t *testing.T) {
	m := testModel(t)
	truth := cost.Location{1e-3, 1e-3}
	p, c := optimalPlanAt(t, m, truth)
	subCost := m.Eval(p.Subtree(m.Query.EPPs[1]), truth)

	ctx, rec := faulted(faults.Knobs{BudgetOverrun: 2})
	res, err := New(m, truth).ExecuteCtx(ctx, p, 1.5*c)
	if !IsBudgetAbort(err) || !Terminal(err) {
		t.Fatalf("err = %v, want a terminal budget abort", err)
	}
	if res.Completed || res.Spent != 1.5*c {
		t.Fatalf("res = %+v, want incomplete at budget %g", res, 1.5*c)
	}
	if got := kinds(rec); !slices.Equal(got, []telemetry.Kind{telemetry.BudgetSpend, telemetry.BudgetAbort}) {
		t.Fatalf("events = %v, want budget_spend, budget_abort", got)
	}
	for _, ev := range rec.Events() {
		if ev.Spent != 1.5*c || ev.Budget != 1.5*c || ev.Mode != "exec" || ev.Dim != -1 {
			t.Errorf("exec event %+v, want mode exec at the budget", ev)
		}
	}

	ctx, rec = faulted(faults.Knobs{BudgetOverrun: 2})
	sres, ok, err := New(m, truth).ExecuteSpillCtx(ctx, p, 1, 1.5*subCost)
	if !ok || !IsBudgetAbort(err) {
		t.Fatalf("ok=%v err=%v, want a spill budget abort", ok, err)
	}
	if sres.Completed || sres.Spent != 1.5*subCost {
		t.Fatalf("spill = %+v, want incomplete at budget %g", sres, 1.5*subCost)
	}
	if sres.Learned <= 0 || sres.Learned >= truth[1] {
		t.Errorf("the partial monitoring bound %g must survive the abort", sres.Learned)
	}
	if got := kinds(rec); !slices.Equal(got, []telemetry.Kind{telemetry.BudgetSpend, telemetry.BudgetAbort}) {
		t.Fatalf("events = %v, want budget_spend, budget_abort", got)
	}
	if ab := rec.Events()[1]; ab.Mode != "spill" || ab.Dim != 1 || ab.Spent != 1.5*subCost {
		t.Errorf("abort event %+v, want mode spill on dim 1 at the budget", ab)
	}
}

// TestSkewedLearnEscapes corrupts run-time monitoring past the ESS: the
// spill records ess_escape and returns a terminal escape error, and on an
// aborted spill the escape outranks the abort.
func TestSkewedLearnEscapes(t *testing.T) {
	m := testModel(t)
	truth := cost.Location{1e-3, 1e-3}
	p, _ := optimalPlanAt(t, m, truth)
	subCost := m.Eval(p.Subtree(m.Query.EPPs[1]), truth)
	skew := faults.Knobs{SkewLearnedAt: 1, SkewLearnedFactor: 1e9}

	ctx, rec := faulted(skew)
	res, ok, err := New(m, truth).ExecuteSpillCtx(ctx, p, 1, 2*subCost)
	if !ok || !IsEscape(err) || !Terminal(err) {
		t.Fatalf("ok=%v err=%v, want a terminal ESS escape", ok, err)
	}
	if got := kinds(rec); !slices.Equal(got, []telemetry.Kind{telemetry.BudgetSpend, telemetry.ESSEscape}) {
		t.Fatalf("events = %v, want budget_spend, ess_escape", got)
	}
	if ev := rec.Events()[1]; ev.Dim != 1 || ev.Learned != res.Learned || ev.Learned <= 1 {
		t.Errorf("escape event %+v, want dim 1 with the skewed learn", ev)
	}

	skew.BudgetOverrun = 2
	ctx, rec = faulted(skew)
	_, ok, err = New(m, truth).ExecuteSpillCtx(ctx, p, 1, 1.5*subCost)
	if !ok || !IsEscape(err) || IsBudgetAbort(err) {
		t.Fatalf("ok=%v err=%v, want the escape to outrank the abort", ok, err)
	}
	if got := kinds(rec); !slices.Equal(got, []telemetry.Kind{telemetry.BudgetSpend, telemetry.BudgetAbort, telemetry.ESSEscape}) {
		t.Fatalf("events = %v, want budget_spend, budget_abort, ess_escape", got)
	}
}

// TestInESSLearnPassesThrough checks the ESS axioms at their edges, and
// that a skew which keeps the learned value inside [0, 1] is no escape.
func TestInESSLearnPassesThrough(t *testing.T) {
	for _, v := range []float64{0, 0.5, 1, 1 + 1e-10} {
		if !inESS(v) {
			t.Errorf("learned %g flagged as escape", v)
		}
	}
	for _, v := range []float64{-1e-12, 1 + 1e-6, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if inESS(v) {
			t.Errorf("learned %g passed as inside the ESS", v)
		}
	}
	m := testModel(t)
	truth := cost.Location{1e-3, 1e-3}
	p, _ := optimalPlanAt(t, m, truth)
	ctx, rec := faulted(faults.Knobs{SkewLearnedAt: 1, SkewLearnedFactor: 0.5})
	res, ok, err := New(m, truth).ExecuteSpillCtx(ctx, p, 0, math.Inf(1))
	if !ok || err != nil || !res.Completed || res.Learned != truth[0]*0.5 {
		t.Fatalf("in-ESS skew: %+v ok=%v err=%v", res, ok, err)
	}
	if got := kinds(rec); !slices.Equal(got, []telemetry.Kind{telemetry.BudgetSpend}) {
		t.Fatalf("events = %v, want one budget_spend", got)
	}
}

// TestUnbudgetedOverrunCompletes runs unbudgeted (+Inf) executions under an
// overrun: there is no budget to cut them off at, so they complete at the
// inflated charge.
func TestUnbudgetedOverrunCompletes(t *testing.T) {
	m := testModel(t)
	truth := cost.Location{1e-3, 1e-3}
	p, c := optimalPlanAt(t, m, truth)
	ctx, rec := faulted(faults.Knobs{BudgetOverrun: 2})
	e := New(m, truth)
	res, err := e.ExecuteCtx(ctx, p, math.Inf(1))
	if err != nil || !res.Completed || res.Spent != 2*c {
		t.Fatalf("unbudgeted exec: %+v (%v), want completed at %g", res, err, 2*c)
	}
	sres, ok, err := e.ExecuteSpillCtx(ctx, p, 0, math.Inf(1))
	if err != nil || !ok || !sres.Completed {
		t.Fatalf("unbudgeted spill: %+v ok=%v err=%v", sres, ok, err)
	}
	if got := kinds(rec); !slices.Equal(got, []telemetry.Kind{telemetry.BudgetSpend, telemetry.BudgetSpend}) {
		t.Fatalf("events = %v, want two budget_spend and no abort", got)
	}
}

// TestResilientDoesNotRetryAbortOrEscape drives the engine through the
// retry layer: a budget abort and an ESS escape reach the caller after one
// execution, with no retry recorded.
func TestResilientDoesNotRetryAbortOrEscape(t *testing.T) {
	m := testModel(t)
	truth := cost.Location{1e-3, 1e-3}
	p, c := optimalPlanAt(t, m, truth)
	r := &Resilient{Exec: New(m, truth), Sleep: noSleep}

	fp := faults.Knobs{BudgetOverrun: 2}.Plan()
	ctx, rec := recorded(faults.With(context.Background(), fp))
	if _, err := r.ExecuteCtx(ctx, p, 1.5*c); !IsBudgetAbort(err) {
		t.Fatalf("err = %v, want the budget abort", err)
	}
	if fp.Execs() != 1 || retries(rec) != 0 {
		t.Fatalf("abort retried: %d executions, %d retries", fp.Execs(), retries(rec))
	}

	fp = faults.Knobs{SkewLearnedAt: 1, SkewLearnedFactor: 1e9}.Plan()
	ctx, rec = recorded(faults.With(context.Background(), fp))
	if _, _, err := r.ExecuteSpillCtx(ctx, p, 0, math.Inf(1)); !IsEscape(err) {
		t.Fatalf("err = %v, want the ESS escape", err)
	}
	if fp.Execs() != 1 || retries(rec) != 0 {
		t.Fatalf("escape retried: %d executions, %d retries", fp.Execs(), retries(rec))
	}
}
