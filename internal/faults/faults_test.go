package faults

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestNilPlanIsNoop(t *testing.T) {
	var p *Plan
	if err := p.BeforeExec(context.Background()); err != nil {
		t.Fatalf("nil BeforeExec: %v", err)
	}
	if err := p.OnCostEval(); err != nil {
		t.Fatalf("nil OnCostEval: %v", err)
	}
	if f := p.OverrunFactor(); f != 1 {
		t.Fatalf("nil OverrunFactor = %g", f)
	}
	if p.Injected() != 0 || p.Execs() != 0 {
		t.Fatal("nil counters nonzero")
	}
}

func TestContextThreading(t *testing.T) {
	if From(context.Background()) != nil {
		t.Fatal("background context carries a plan")
	}
	p := Knobs{FailExecAt: 1}.Plan()
	ctx := With(context.Background(), p)
	if From(ctx) != p {
		t.Fatal("plan not recovered from context")
	}
	if got := With(context.Background(), nil); From(got) != nil {
		t.Fatal("nil plan attached")
	}
}

func TestFailWindow(t *testing.T) {
	p := Knobs{FailExecAt: 2, FailExecCount: 2}.Plan()
	ctx := context.Background()
	if err := p.BeforeExec(ctx); err != nil {
		t.Fatalf("exec 1 should pass: %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := p.BeforeExec(ctx); !errors.Is(err, ErrInjected) {
			t.Fatalf("exec %d: want ErrInjected, got %v", 2+i, err)
		}
	}
	if err := p.BeforeExec(ctx); err != nil {
		t.Fatalf("exec 4 should pass: %v", err)
	}
	if p.Injected() != 2 || p.Execs() != 4 {
		t.Fatalf("injected=%d execs=%d", p.Injected(), p.Execs())
	}
}

func TestFailCountDefaultsToOne(t *testing.T) {
	p := Knobs{FailExecAt: 1}.Plan()
	if err := p.BeforeExec(context.Background()); !errors.Is(err, ErrInjected) {
		t.Fatalf("exec 1: want injected, got %v", err)
	}
	if err := p.BeforeExec(context.Background()); err != nil {
		t.Fatalf("exec 2 should pass: %v", err)
	}
}

func TestPanicInjection(t *testing.T) {
	p := Knobs{PanicExecAt: 1}.Plan()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	_ = p.BeforeExec(context.Background())
}

func TestCostEvalInjection(t *testing.T) {
	p := Knobs{FailCostEvalAt: 2}.Plan()
	if err := p.OnCostEval(); err != nil {
		t.Fatalf("eval 1: %v", err)
	}
	if err := p.OnCostEval(); !errors.Is(err, ErrInjected) {
		t.Fatalf("eval 2: want injected, got %v", err)
	}
	if err := p.OnCostEval(); err != nil {
		t.Fatalf("eval 3: %v", err)
	}
}

func TestLatencyHonoursDeadline(t *testing.T) {
	p := Knobs{Latency: 5 * time.Second}.Plan()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := p.BeforeExec(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline exceeded, got %v", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("deadline not enforced promptly: %v", took)
	}
}

func TestOverrunFactor(t *testing.T) {
	if f := (Knobs{BudgetOverrun: 2.5}).Plan().OverrunFactor(); f != 2.5 {
		t.Fatalf("factor = %g", f)
	}
	if f := (Knobs{BudgetOverrun: 0.5}).Plan().OverrunFactor(); f != 1 {
		t.Fatalf("sub-1 factor = %g, want disabled", f)
	}
}

func TestKnobsPlanIsFresh(t *testing.T) {
	k := Knobs{SkewLearnedAt: 1, SkewLearnedFactor: 2}
	p1, p2 := k.Plan(), k.Plan()
	if p1 == p2 {
		t.Fatal("Plan returned a shared instance")
	}
	p1.OnLearned(0.5)
	if got := p2.Injected(); got != 0 {
		t.Errorf("counters leaked across Plan instances: %d", got)
	}
}
