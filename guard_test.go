package repro

import (
	"context"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// countKind tallies events of one kind.
func countKind(events []telemetry.Event, k telemetry.Kind) int {
	n := 0
	for _, ev := range events {
		if ev.Kind == k {
			n++
		}
	}
	return n
}

// TestBudgetAbortGolden drives a budget-overrunning engine under the default
// watchdog (zero slack) and pins the guard's observable surface: budget_abort
// events, the trace rendering, the run-level verdict, and the invariant that
// no execution ever charged past its enforcement ceiling.
func TestBudgetAbortGolden(t *testing.T) {
	sess := newTestSession(t)
	truth := Location{0.02, 0.3}
	res, err := sess.RunContext(WithFaults(context.Background(), &FaultPlan{BudgetOverrun: 2}), SpillBound, truth)
	if err != nil {
		t.Fatalf("overrun run should complete under the watchdog: %v", err)
	}
	if n := countKind(res.Events, telemetry.BudgetAbort); n < 1 {
		t.Fatalf("no budget_abort events in an overrun run:\n%s", res.Trace)
	}
	if res.GuardVerdict != string(telemetry.BudgetAbort) {
		t.Errorf("GuardVerdict = %q, want %q", res.GuardVerdict, telemetry.BudgetAbort)
	}
	if res.Degraded {
		t.Errorf("watchdog aborts must not degrade the run:\n%s", res.Trace)
	}
	if res.Retries != 0 {
		t.Errorf("retries = %d; budget aborts are terminal and must never be re-run", res.Retries)
	}
	if !strings.Contains(res.Trace, "guard: budget abort at ceiling") {
		t.Errorf("trace missing guard abort line:\n%s", res.Trace)
	}
	// Zero slack: every charge the run accounted is capped by its assigned
	// budget, abort events included.
	const eps = 1e-9
	for _, ev := range res.Events {
		switch ev.Kind {
		case telemetry.BudgetSpend, telemetry.BudgetAbort:
			if ev.Budget > 0 && ev.Spent > ev.Budget*(1+eps) {
				t.Errorf("%s charged %g past budget %g", ev.Kind, ev.Spent, ev.Budget)
			}
		}
	}
	if res.SubOpt < 1 {
		t.Errorf("subOpt = %g", res.SubOpt)
	}
}

// TestCleanRunCarriesNoGuardLines checks that a run without faults leaves
// the guard silent: no guard lines in its trace and no verdict.
func TestCleanRunCarriesNoGuardLines(t *testing.T) {
	sess := newTestSession(t)
	clean, err := sess.Run(SpillBound, Location{0.02, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(clean.Trace, "guard:") {
		t.Errorf("clean run trace carries guard lines:\n%s", clean.Trace)
	}
	if clean.GuardVerdict != "" {
		t.Errorf("clean run GuardVerdict = %q", clean.GuardVerdict)
	}
}

// TestESSEscapeGolden corrupts run-time monitoring so the learned selectivity
// leaves [0,1]: the guard must emit ess_escape, reroute to the max-corner
// safe path, and still return a completed, verdict-flagged result.
func TestESSEscapeGolden(t *testing.T) {
	sess := newTestSession(t)
	truth := Location{0.02, 0.3}
	ctx := WithFaults(context.Background(), &FaultPlan{SkewLearnedAt: 1, SkewLearnedFactor: 1e9})
	res, err := sess.RunContext(ctx, SpillBound, truth)
	if err != nil {
		t.Fatalf("escape run should complete via the safe path: %v", err)
	}
	if n := countKind(res.Events, telemetry.ESSEscape); n != 1 {
		t.Fatalf("ess_escape events = %d, want 1:\n%s", n, res.Trace)
	}
	if res.GuardVerdict != string(telemetry.ESSEscape) {
		t.Errorf("GuardVerdict = %q, want %q", res.GuardVerdict, telemetry.ESSEscape)
	}
	for _, want := range []string{"guard: ess escape on dim", "guard: safe-path terminal plan"} {
		if !strings.Contains(res.Trace, want) {
			t.Errorf("trace missing %q:\n%s", want, res.Trace)
		}
	}
	if res.Degraded {
		t.Errorf("safe path is a guard reroute, not a degradation:\n%s", res.Trace)
	}
	if res.TotalCost <= 0 || res.SubOpt < 1 {
		t.Errorf("safe-path accounting off: total %g subOpt %g", res.TotalCost, res.SubOpt)
	}
	if res.Retries != 0 {
		t.Errorf("retries = %d; an escape is terminal and must never be re-run", res.Retries)
	}
}

// TestESSEscapeDominatesVerdict layers both faults: aborts happen first, the
// escape still wins the run-level verdict (it is the stronger intervention).
func TestESSEscapeDominatesVerdict(t *testing.T) {
	sess := newTestSession(t)
	ctx := WithFaults(context.Background(), &FaultPlan{BudgetOverrun: 2, SkewLearnedAt: 2, SkewLearnedFactor: 1e9})
	res, err := sess.RunContext(ctx, SpillBound, Location{0.02, 0.3})
	if err != nil {
		t.Fatalf("guarded run errored: %v", err)
	}
	if res.GuardVerdict != string(telemetry.ESSEscape) {
		t.Errorf("GuardVerdict = %q, want %q (escape dominates)", res.GuardVerdict, telemetry.ESSEscape)
	}
}

// TestMSOGuaranteeUnderOverrun sweeps PlanBouquet across sampled grid truths
// with a uniformly overrunning engine and checks the enforced worst-case
// bound: the overrun factor scales the whole cost surface, so the effective
// oracle cost is factor·opt and TotalCost/(factor·opt) must stay within
// 4·(1+λ)·(1+slack)·ρ — the paper's Theorem 3.4 bound with the watchdog's
// slack made explicit (zero here).
func TestMSOGuaranteeUnderOverrun(t *testing.T) {
	sess := newTestSession(t)
	const factor = 2.0
	bound := sess.Guarantee(PlanBouquet)
	if bound <= 0 {
		t.Fatalf("guarantee = %g", bound)
	}
	g := sess.space.Grid
	aborts, worst := 0, 0.0
	for ci := 0; ci < g.Size(); ci += 7 {
		truth := Location(g.Location(ci))
		res, err := sess.RunContext(WithFaults(context.Background(), &FaultPlan{BudgetOverrun: factor}), PlanBouquet, truth)
		if err != nil {
			t.Fatalf("truth %v: %v", truth, err)
		}
		aborts += countKind(res.Events, telemetry.BudgetAbort)
		effSubOpt := res.TotalCost / (factor * res.OptimalCost)
		if effSubOpt > worst {
			worst = effSubOpt
		}
		if effSubOpt > bound*(1+1e-9) {
			t.Errorf("truth %v: enforced subOpt %g exceeds guarantee %g", truth, effSubOpt, bound)
		}
	}
	if aborts == 0 {
		t.Error("sweep never triggered the watchdog; the bound was not exercised")
	}
	t.Logf("enforced MSO over sweep = %.3g (guarantee %.3g, %d aborts)", worst, bound, aborts)
}
