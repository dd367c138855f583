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

// TestChaosScenarios is the seeded fault-injection suite (`make chaos`):
// every seeded scenario — clean errors, transient bursts, operator panics,
// cost-eval failures — must end in a completed run (degraded at worst),
// never a panic, hang, or error.
func TestChaosScenarios(t *testing.T) {
	sess := newTestSession(t)
	truth := Location{0.02, 0.3}
	algos := []Algorithm{PlanBouquet, SpillBound, AlignedBound}
	degraded := 0
	for seed := int64(1); seed <= 24; seed++ {
		a := algos[seed%int64(len(algos))]
		res, err := sess.RunContext(WithFaults(context.Background(), FaultScenario(seed)), a, truth)
		if err != nil {
			t.Fatalf("seed %d (%v): %v", seed, a, err)
		}
		if res.TotalCost <= 0 {
			t.Errorf("seed %d (%v): no work charged", seed, a)
		}
		if res.Degraded {
			degraded++
			if !strings.Contains(res.Trace, "guarantee downgraded") {
				t.Errorf("seed %d: degraded run hides the downgrade:\n%s", seed, res.Trace)
			}
		}
	}
	t.Logf("chaos: %d/24 scenarios degraded to native", degraded)
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

// TestConcurrentFaultRuns exercises the new concurrent paths under -race:
// many goroutines share one session, each with its own fault plan.
func TestConcurrentFaultRuns(t *testing.T) {
	sess := newTestSession(t)
	truth := Location{0.02, 0.3}
	var wg sync.WaitGroup
	errc := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			_, err := sess.RunContext(WithFaults(context.Background(), FaultScenario(seed)), SpillBound, truth)
			if err != nil {
				errc <- err
			}
		}(int64(i))
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
