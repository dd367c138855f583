package repro

import (
	"context"

	"repro/internal/faults"
)

// This file exposes the operational-robustness surface of the library: the
// context/deadline contract of the public API and the fault-injection
// harness. The paper's MSO machinery bounds
// the damage of adversarial selectivity *estimates*; this layer bounds the
// damage of adversarial *operations* — a failing or panicking execution
// step, artificial latency, a budget-overrunning operator — with a fixed
// ladder: the engine cuts an overrunning execution off at its budget, a
// failed step is retried twice (after 1ms, then 2ms), and a step that keeps
// failing falls back to the Native (estimate-optimal) plan and reports the
// downgraded guarantee.

// FaultPlan describes operational faults to inject into a run — the chaos
// half of the resilience harness. Counters are 1-based over the executions
// the engine performs; the zero value injects nothing. Attach a plan to a
// run's context with WithFaults. It is an alias of faults.Knobs, which
// documents its fields: go doc repro/internal/faults.Knobs.
type FaultPlan = faults.Knobs

// WithFaults returns a context that injects the plan's faults into the runs
// it is passed to (RunContext, RunDurable, ResumeRun). Injected failures
// ride the same degradation ladder as real ones: step retry with
// exponential backoff, then Native-plan fallback with the downgrade
// recorded in the trace (RunResult.Degraded). The context carries its own
// injection counters: one plan can seed many contexts, and runs sharing
// one context share its counters. A nil plan returns ctx unchanged.
func WithFaults(ctx context.Context, fp *FaultPlan) context.Context {
	if fp == nil {
		return ctx
	}
	return faults.With(ctx, fp.Plan())
}
