package repro

import (
	"context"

	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/guard"
)

// This file exposes the operational-robustness surface of the library: the
// context/deadline contract of the public API, the fault-injection harness,
// and the degradation ladder configuration. The paper's MSO machinery bounds
// the damage of adversarial selectivity *estimates*; this layer bounds the
// damage of adversarial *operations* — a failing or panicking execution
// step, artificial latency, a budget-overrunning operator — with a fixed
// ladder: retry the step with exponential backoff, then fall back to the
// Native (estimate-optimal) plan and report the downgraded guarantee.

// RetryPolicy configures step-level retry with exponential backoff (the
// middle rung of the degradation ladder). The zero value disables retries;
// Options.Retry = nil uses the default (2 retries from 1ms, capped at 50ms).
// It is an alias of engine.Policy, which documents its fields:
// go doc repro/internal/engine.Policy.
type RetryPolicy = engine.Policy

// GuardPolicy configures the runtime guarantee guardrails: the budget
// watchdog that hard-aborts any execution charging past its contour budget,
// and the ESS-escape fallback that reroutes a run whose monitored
// selectivity leaves the enumerated space. Options.Guard = nil enables both
// with zero slack; set Disabled to restore the unguarded behaviour. It is
// an alias of guard.Policy, which documents its fields:
// go doc repro/internal/guard.Policy.
type GuardPolicy = guard.Policy

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

// FaultScenario returns a deterministic seeded fault plan: the seed selects
// a fault class (clean error, transient burst, panic, cost-eval failure,
// budget overrun, or monitoring skew) and its trigger point. Identical seeds
// produce identical plans, so chaos findings replay exactly.
func FaultScenario(seed int64) *FaultPlan {
	k := faults.Scenario(seed)
	return &k
}

// retryPolicy resolves the session's step-retry configuration.
func (s *Session) retryPolicy() engine.Policy {
	if r := s.opts.Retry; r != nil {
		return *r
	}
	return engine.DefaultPolicy()
}

// guardPolicy resolves the session's guard configuration.
func (s *Session) guardPolicy() guard.Policy {
	if g := s.opts.Guard; g != nil {
		return *g
	}
	return guard.Policy{}
}
