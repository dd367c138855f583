package repro

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRunContextMatchesRun(t *testing.T) {
	sess := newTestSession(t)
	truth := Location{0.02, 0.3}
	for _, a := range []Algorithm{Native, PlanBouquet, SpillBound, AlignedBound} {
		plain, err := sess.Run(a, truth)
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		ctxed, err := sess.RunContext(context.Background(), a, truth)
		if err != nil {
			t.Fatalf("%v ctx: %v", a, err)
		}
		if plain.TotalCost != ctxed.TotalCost || plain.SubOpt != ctxed.SubOpt {
			t.Errorf("%v: ctx run diverges: %g vs %g", a, plain.TotalCost, ctxed.TotalCost)
		}
		if ctxed.Degraded {
			t.Errorf("%v: clean run marked degraded", a)
		}
	}
}

func TestRunContextAbortsWithinDeadline(t *testing.T) {
	sess := newTestSession(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	// The latency fault parks every execution, so only the deadline can end
	// the run; the assertion is that it does, promptly.
	start := time.Now()
	_, err := sess.RunContext(WithFaults(ctx, &FaultPlan{Latency: 10 * time.Second}), SpillBound, Location{0.02, 0.3})
	took := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if took > 2*time.Second {
		t.Fatalf("abort took %v, deadline was 30ms", took)
	}
}

func TestRunContextPreCancelled(t *testing.T) {
	sess := newTestSession(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sess.RunContext(ctx, SpillBound, Location{0.02, 0.3}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want Canceled, got %v", err)
	}
}

func TestTransientFaultAbsorbedByRetry(t *testing.T) {
	sess := newTestSession(t)
	truth := Location{0.02, 0.3}
	clean, err := sess.Run(SpillBound, truth)
	if err != nil {
		t.Fatal(err)
	}
	// One injected failure on the second execution: the backoff retry
	// re-runs the step and the discovery completes unchanged.
	res, err := sess.RunContext(WithFaults(context.Background(), &FaultPlan{FailExecAt: 2}), SpillBound, truth)
	if err != nil {
		t.Fatalf("transient fault should not error: %v", err)
	}
	if res.Degraded {
		t.Fatalf("transient fault should not degrade: %s", res.Trace)
	}
	if res.Retries < 1 {
		t.Fatalf("retries = %d, want >= 1", res.Retries)
	}
	if res.TotalCost != clean.TotalCost {
		t.Errorf("retried run cost %g != clean %g", res.TotalCost, clean.TotalCost)
	}
	if !strings.Contains(res.Trace, "resilience:") {
		t.Errorf("trace missing resilience events:\n%s", res.Trace)
	}
}

func TestPersistentFaultDegradesToNative(t *testing.T) {
	sess := newTestSession(t)
	truth := Location{0.02, 0.3}
	// Fail from the second execution onward, far past the retry budget:
	// mid-contour failure → backoff retries → Native-plan fallback.
	res, err := sess.RunContext(WithFaults(context.Background(), &FaultPlan{FailExecAt: 2, FailExecCount: 1000}), SpillBound, truth)
	if err != nil {
		t.Fatalf("degraded run should complete, got error: %v", err)
	}
	if !res.Degraded {
		t.Fatalf("run not degraded:\n%s", res.Trace)
	}
	if res.DegradedReason == "" {
		t.Error("missing DegradedReason")
	}
	if res.Retries < 2 {
		t.Errorf("retries = %d, want the policy's 2", res.Retries)
	}
	// The fallback really ran: total cost covers at least the native plan,
	// and sub-optimality is well-defined.
	nat, err := sess.Run(Native, truth)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCost < nat.TotalCost {
		t.Errorf("degraded cost %g below native %g", res.TotalCost, nat.TotalCost)
	}
	if res.SubOpt < 1 {
		t.Errorf("subOpt = %g", res.SubOpt)
	}
	for _, want := range []string{"degraded:", "falling back to native plan", "guarantee downgraded"} {
		if !strings.Contains(res.Trace, want) {
			t.Errorf("trace missing %q:\n%s", want, res.Trace)
		}
	}
}

// TestFaultPlanReusedAcrossContexts: each WithFaults context carries fresh
// injection counters, so one plan attached to two contexts degrades both
// runs, while two runs sharing one context share its counters: the first
// exhausts the failure window and the second runs clean.
func TestFaultPlanReusedAcrossContexts(t *testing.T) {
	sess := newTestSession(t)
	truth := Location{0.02, 0.3}
	// One first attempt plus the default policy's two retries.
	fp := &FaultPlan{FailExecAt: 1, FailExecCount: 3}
	run := func(ctx context.Context) RunResult {
		t.Helper()
		res, err := sess.RunContext(ctx, SpillBound, truth)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for i := 0; i < 2; i++ {
		if res := run(WithFaults(context.Background(), fp)); !res.Degraded {
			t.Errorf("run %d under its own context not degraded:\n%s", i, res.Trace)
		}
	}
	shared := WithFaults(context.Background(), fp)
	if res := run(shared); !res.Degraded {
		t.Errorf("first run on the shared context not degraded:\n%s", res.Trace)
	}
	if res := run(shared); res.Degraded {
		t.Errorf("second run on the shared context degraded:\n%s", res.Trace)
	}
	if ctx := context.Background(); WithFaults(ctx, nil) != ctx {
		t.Error("WithFaults(ctx, nil) did not return ctx")
	}
}

func TestPanicFaultRecovered(t *testing.T) {
	sess := newTestSession(t)
	// An injected operator panic is recovered into an error and retried;
	// the next attempt does not panic, so the run completes undegraded.
	res, err := sess.RunContext(WithFaults(context.Background(), &FaultPlan{PanicExecAt: 1}), AlignedBound, Location{0.02, 0.3})
	if err != nil {
		t.Fatalf("panic should be recovered: %v", err)
	}
	if res.Degraded {
		t.Fatalf("single panic should be absorbed by retry:\n%s", res.Trace)
	}
	if res.Retries < 1 {
		t.Errorf("retries = %d", res.Retries)
	}
}

func TestBudgetOverrunStillCompletes(t *testing.T) {
	sess := newTestSession(t)
	truth := Location{0.02, 0.3}
	clean, err := sess.Run(SpillBound, truth)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.RunContext(WithFaults(context.Background(), &FaultPlan{BudgetOverrun: 2}), SpillBound, truth)
	if err != nil {
		t.Fatalf("overrun run failed: %v", err)
	}
	if res.Degraded {
		t.Fatalf("overrun is not a failure, must not degrade:\n%s", res.Trace)
	}
	if res.TotalCost < clean.TotalCost {
		t.Errorf("overrun cost %g below clean %g", res.TotalCost, clean.TotalCost)
	}
}

// chaosFaults is the fault-injection table (`make chaos`): every fault
// class a run's executor stack must absorb, each at an early and a late
// trigger — a clean error, a transient burst, an operator panic, a
// cost-eval failure, a budget overrun (its factor stands in for the
// trigger) and monitoring skew past the ESS boundary — with the retries
// and guard verdict each class leaves on the run.
var chaosFaults = []struct {
	name    string
	fp      FaultPlan
	retries int
	verdict string
}{
	{"error/early", FaultPlan{FailExecAt: 1}, 1, ""},
	{"error/late", FaultPlan{FailExecAt: 3}, 1, ""},
	{"burst/early", FaultPlan{FailExecAt: 1, FailExecCount: 2}, 2, ""},
	{"burst/late", FaultPlan{FailExecAt: 3, FailExecCount: 2}, 2, ""},
	{"panic/early", FaultPlan{PanicExecAt: 1}, 1, ""},
	{"panic/late", FaultPlan{PanicExecAt: 4}, 1, ""},
	{"costeval/early", FaultPlan{FailCostEvalAt: 1}, 1, ""},
	{"costeval/late", FaultPlan{FailCostEvalAt: 4}, 1, ""},
	{"overrun/early", FaultPlan{BudgetOverrun: 1.5}, 0, "budget_abort"},
	{"overrun/late", FaultPlan{BudgetOverrun: 3.5}, 0, "budget_abort"},
	{"escape/early", FaultPlan{SkewLearnedAt: 1, SkewLearnedFactor: 1e9}, 0, "ess_escape"},
	{"escape/late", FaultPlan{SkewLearnedAt: 3, SkewLearnedFactor: 1e9}, 0, "ess_escape"},
}

// TestChaosScenarios runs every fault class of chaosFaults under each
// discovery strategy: each run must complete undegraded with the class's
// retries and verdict, never panic, hang or fail.
func TestChaosScenarios(t *testing.T) {
	sess := newTestSession(t)
	truth := Location{0.02, 0.3}
	for _, c := range chaosFaults {
		for _, a := range []Algorithm{PlanBouquet, SpillBound, AlignedBound} {
			res, err := sess.RunContext(WithFaults(context.Background(), &c.fp), a, truth)
			if err != nil {
				t.Fatalf("%s (%v): %v", c.name, a, err)
			}
			if res.TotalCost <= 0 {
				t.Errorf("%s (%v): no work charged", c.name, a)
			}
			verdict := c.verdict
			if a == PlanBouquet && c.fp.SkewLearnedAt > 0 {
				verdict = "" // PlanBouquet never spills, so nothing is learned to skew
			}
			if res.Retries != c.retries || res.GuardVerdict != verdict || res.Degraded {
				t.Errorf("%s (%v): retries %d, verdict %q, degraded %v; want %d, %q, false",
					c.name, a, res.Retries, res.GuardVerdict, res.Degraded, c.retries, verdict)
			}
		}
	}
}

func TestSweepContextCancellation(t *testing.T) {
	sess := newTestSession(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sess.SweepContext(ctx, SpillBound, 10); !errors.Is(err, context.Canceled) {
		t.Fatalf("want Canceled, got %v", err)
	}
	// And the uncancelled path still aggregates.
	sum, err := sess.SweepContext(context.Background(), SpillBound, 10)
	if err != nil || sum.Locations != 10 {
		t.Fatalf("sweep: %+v, %v", sum, err)
	}
}

// TestConcurrentFaultRuns exercises the concurrent paths under -race:
// goroutines share one session, each running one chaosFaults entry under
// one discovery strategy with its own fault plan.
func TestConcurrentFaultRuns(t *testing.T) {
	sess := newTestSession(t)
	truth := Location{0.02, 0.3}
	algos := []Algorithm{PlanBouquet, SpillBound, AlignedBound}
	var wg sync.WaitGroup
	errc := make(chan error, len(chaosFaults)*len(algos))
	for _, c := range chaosFaults {
		for _, a := range algos {
			wg.Add(1)
			go func(fp FaultPlan, a Algorithm) {
				defer wg.Done()
				if _, err := sess.RunContext(WithFaults(context.Background(), &fp), a, truth); err != nil {
					errc <- err
				}
			}(c.fp, a)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
