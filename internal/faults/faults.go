// Package faults provides an injectable fault plan for resilience testing —
// the operational analogue of the paper's adversarial selectivity errors.
// Where the MSO guarantees bound the damage of a hostile *estimate*, a fault
// plan bounds-checks the runtime against hostile *operations*: an execution
// that errors, an operator that panics, latency that eats a deadline, or a
// budget overrun. Plans are threaded through context.Context so any layer
// (engine, row executor, server handler) can consult the active plan without
// new parameters, and seeded scenarios make chaos runs deterministic and
// replayable in tests.
package faults

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrInjected marks a failure introduced by a fault plan. Degradation
// policies treat it exactly like a real execution failure; tests assert on
// it with errors.Is.
var ErrInjected = errors.New("faults: injected failure")

// ErrCrashed marks a process-internal "kill" injected at a checkpoint
// boundary: the run loop aborts as if the process had died there, without
// the retry/degradation ladder absorbing it — recovery is the resume path's
// job, not the retry policy's. Deliberately NOT wrapped around ErrInjected.
var ErrCrashed = errors.New("faults: injected crash")

// IsCrash reports whether the error is an injected checkpoint crash.
func IsCrash(err error) bool { return errors.Is(err, ErrCrashed) }

// Knobs describes which faults to inject and when: the one fault
// description shared by the public API (repro.FaultPlan), the seeded
// scenarios and the run-time Plan. Counters are 1-based over the
// executions observed by the consulted layer; the zero value injects
// nothing. Knobs is a plain comparable value: instantiate a Plan from it
// per run, since injection counters are per-run state.
type Knobs struct {
	// FailExecAt injects ErrInjected on the Nth execution (1-based).
	// 0 disables.
	FailExecAt int
	// FailExecCount is how many consecutive executions fail starting at
	// FailExecAt. 0 means 1 when FailExecAt is set. A count past the retry
	// budget forces the degradation ladder all the way down, to the Native
	// fallback.
	FailExecCount int
	// PanicExecAt panics on the Nth execution (1-based), simulating an
	// operator bug rather than a clean error; the resilience layer recovers
	// it into an error. 0 disables.
	PanicExecAt int
	// FailCostEvalAt injects ErrInjected on the Nth cost evaluation
	// (1-based). 0 disables.
	FailCostEvalAt int
	// Latency is artificial delay added to every execution, to exercise
	// deadline enforcement. 0 disables.
	Latency time.Duration
	// BudgetOverrun, when > 1, multiplies every execution's charged cost,
	// as a misbehaving operator would. A budgeted execution the factor
	// carries past its budget is cut off there (engine.ErrBudgetAborted);
	// an unbudgeted one completes at the inflated charge. Values <= 1
	// disable.
	BudgetOverrun float64
	// SkewLearnedAt corrupts the Nth learned-selectivity observation
	// (1-based over spill-mode learns) by multiplying it with
	// SkewLearnedFactor — simulating run-time monitoring gone wrong (a
	// miscounted join output). A factor large enough to push the value past
	// 1 drives the discovery outside the ESS, exercising the guard's
	// ESS-escape fallback. 0 disables.
	SkewLearnedAt int
	// SkewLearnedFactor is the multiplier applied at SkewLearnedAt
	// (values <= 0 are treated as 1).
	SkewLearnedFactor float64
	// CrashAtCheckpoint aborts the run loop with ErrCrashed at the Nth
	// checkpoint boundary (1-based) — a process-internal "kill" that fires
	// *before* the snapshot is persisted, so the last durable state is the
	// previous checkpoint and the resume path must redo the in-flight
	// contour (the bounded-redo case). Unlike the other faults it bypasses
	// the retry/degradation ladder: the run ends in an error matched by
	// IsCrash, and repro's ResumeRun recovers it. Only durable runs pass
	// checkpoints. 0 disables.
	CrashAtCheckpoint int
}

// Plan instantiates a fresh fault plan from the knobs, with zeroed
// injection counters.
func (k Knobs) Plan() *Plan { return &Plan{Knobs: k} }

// Plan is the run-time form of Knobs: the knobs plus the injection
// counters one run advances. The zero value injects nothing. A Plan is
// safe for concurrent use.
type Plan struct {
	Knobs

	mu             sync.Mutex
	execs          int
	costEvals      int
	checkpoints    int
	learns         int
	injected       int
	dropHeartbeats bool
}

// ctxKey is the private context key for the active plan.
type ctxKey struct{}

// With returns a context carrying the fault plan. A nil plan returns ctx
// unchanged.
func With(ctx context.Context, p *Plan) context.Context {
	if p == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, p)
}

// From extracts the active fault plan, or nil when none is attached.
func From(ctx context.Context) *Plan {
	if ctx == nil {
		return nil
	}
	p, _ := ctx.Value(ctxKey{}).(*Plan)
	return p
}

// BeforeExec is called by executors at each execution boundary. It applies
// the plan's latency, honours the context deadline during the sleep, panics
// when the panic counter fires, and returns ErrInjected when the failure
// window covers this execution. Nil-safe.
func (p *Plan) BeforeExec(ctx context.Context) error {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	p.execs++
	n := p.execs
	panicAt := p.PanicExecAt
	failAt, failCount := p.FailExecAt, p.FailExecCount
	if failAt > 0 && failCount <= 0 {
		failCount = 1
	}
	inject := failAt > 0 && n >= failAt && n < failAt+failCount
	if inject {
		p.injected++
	}
	latency := p.Latency
	p.mu.Unlock()

	if latency > 0 {
		if err := sleepCtx(ctx, latency); err != nil {
			return err
		}
	}
	if panicAt > 0 && n == panicAt {
		panic(fmt.Sprintf("faults: injected panic on execution %d", n))
	}
	if inject {
		return fmt.Errorf("%w (execution %d)", ErrInjected, n)
	}
	return nil
}

// OnCostEval is called by the engine at each cost-model evaluation used for
// execution charging; it returns ErrInjected when the cost-eval counter
// fires. Nil-safe.
func (p *Plan) OnCostEval() error {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	p.costEvals++
	n := p.costEvals
	at := p.FailCostEvalAt
	inject := at > 0 && n == at
	if inject {
		p.injected++
	}
	p.mu.Unlock()
	if inject {
		return fmt.Errorf("%w (cost evaluation %d)", ErrInjected, n)
	}
	return nil
}

// OnCheckpoint is called by the run-state layer at each checkpoint
// boundary, before the snapshot is persisted; it returns ErrCrashed when
// the crash counter fires, simulating the process dying at the boundary.
// Nil-safe.
func (p *Plan) OnCheckpoint() error {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	p.checkpoints++
	n := p.checkpoints
	at := p.CrashAtCheckpoint
	inject := at > 0 && n == at
	if inject {
		p.injected++
	}
	p.mu.Unlock()
	if inject {
		return fmt.Errorf("%w (checkpoint %d)", ErrCrashed, n)
	}
	return nil
}

// SetDropHeartbeats toggles heartbeat-drop injection at runtime: while set,
// OnHeartbeat fails every probe, so a fleet node consulting the plan in its
// health handler looks partitioned to its peers while staying fully alive —
// the asymmetric network-partition chaos case. Nil-safe (a nil plan ignores
// the toggle).
func (p *Plan) SetDropHeartbeats(drop bool) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.dropHeartbeats = drop
	p.mu.Unlock()
}

// OnHeartbeat is called by the fleet health handler on every inbound
// heartbeat probe; it returns ErrInjected while heartbeat dropping is
// toggled on. Nil-safe.
func (p *Plan) OnHeartbeat() error {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	drop := p.dropHeartbeats
	if drop {
		p.injected++
	}
	p.mu.Unlock()
	if drop {
		return fmt.Errorf("%w (heartbeat dropped)", ErrInjected)
	}
	return nil
}

// OnLearned is called by the metering substrates after each spill-mode
// learned-selectivity observation; it returns the (possibly skew-corrupted)
// value the monitoring layer reports. Nil-safe.
func (p *Plan) OnLearned(learned float64) float64 {
	if p == nil {
		return learned
	}
	p.mu.Lock()
	p.learns++
	n := p.learns
	at, factor := p.SkewLearnedAt, p.SkewLearnedFactor
	inject := at > 0 && n == at
	if inject {
		p.injected++
	}
	p.mu.Unlock()
	if !inject {
		return learned
	}
	if factor <= 0 {
		factor = 1
	}
	return learned * factor
}

// OverrunFactor returns the charged-cost multiplier (1 when disabled).
// Nil-safe.
func (p *Plan) OverrunFactor() float64 {
	if p == nil || p.BudgetOverrun <= 1 {
		return 1
	}
	return p.BudgetOverrun
}

// Injected reports how many faults the plan has injected so far.
func (p *Plan) Injected() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.injected
}

// Execs reports how many executions the plan has observed.
func (p *Plan) Execs() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.execs
}

// sleepCtx sleeps for d or until the context is done, whichever first. A
// nil context (callers without cancellation) degrades to the background
// context rather than a bare time.Sleep, so every latency injection stays
// on the cancellable timer path.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if ctx == nil {
		ctx = context.Background()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
