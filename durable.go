package repro

import (
	"context"
	"fmt"

	"repro/internal/runstate"
	"repro/internal/trace"
)

// This file exposes the crash-tolerance surface of the library: durable runs
// that checkpoint their discovery state at every contour boundary, and the
// resume path that rehydrates an interrupted run from its last snapshot.
//
// The discovery state of the paper's algorithms is monotone — half-space
// pruning (Lemma 3.1) only shrinks the candidate region, the contour index
// only advances, the budget ledger only grows — so any contour-boundary
// snapshot is a valid restart point, and resuming redoes at most the one
// contour iteration that was in flight when the process died (bounded redo:
// total spend across incarnations ≤ uninterrupted spend + one contour's
// executions). See DESIGN.md, "Crash tolerance & durability".

// RunDurable is RunContext with crash tolerance: the run's discovery state is
// checkpointed atomically under Options.DataDir at every contour boundary,
// keyed by runID. If the process dies mid-run, ResumeRun(runID) continues
// from the last snapshot instead of restarting from scratch. A completed run
// leaves a terminal snapshot behind (for inspection; it is not resumable).
// The session must have been created with Options.DataDir set.
func (s *Session) RunDurable(ctx context.Context, a Algorithm, truth Location, runID string) (RunResult, error) {
	if err := s.requireStore(); err != nil {
		return RunResult{}, err
	}
	st, err := ParseStrategy(string(a))
	if err != nil {
		return RunResult{}, err
	}
	if !st.info.Resumable {
		// The native baseline is a single unbudgeted execution: there is no
		// discovery state to checkpoint and nothing to resume. Any other
		// non-resumable registered strategy is rejected the same way.
		return RunResult{}, fmt.Errorf("repro: durable runs need a resumable (contour- or ladder-budgeted) strategy; got %v", a)
	}
	// A rejected truth must not leave a snapshot behind: validate it before
	// the first save, or a bad request would list as an interrupted run.
	if err := s.checkTruth(truth); err != nil {
		return RunResult{}, err
	}
	// Pin the run's trace identity before the first checkpoint: the
	// context's traceparent if one is attached, a fresh one otherwise. A
	// crash-resumed incarnation reads it back, so the whole run — across
	// process restarts — is one trace.
	tp, ok := trace.FromContext(ctx)
	if !ok {
		tp = trace.New()
		ctx = trace.WithContext(ctx, tp)
	}
	rs := runstate.RunState{
		RunID:     runID,
		Algorithm: a.String(),
		Truth:     append([]float64(nil), truth...),
		Seed:      s.opts.sweepSeed(),
		TraceID:   tp.TraceID,
		// Stamp the ownership epoch the writer holds right now (disk truth,
		// not a process-lifetime cache): a healed former owner that starts
		// new runs after a failover must stamp the advanced epoch, not the
		// one it booted with.
		Epoch: s.store.Epoch(),
	}
	// Persist the initial (empty) state before the first execution, so a
	// crash at the very first checkpoint still leaves a resumable file.
	if err := s.store.SaveRun(&rs); err != nil {
		return RunResult{}, err
	}
	return s.runDurable(ctx, a, truth, runstate.NewTracker(s.store, rs), nil)
}

// ResumeRun rehydrates an interrupted durable run from its last checkpoint
// and drives it to completion: the learnt selectivities (and their
// half-space prunes), the restart contour and the budget ledger are restored
// before the first execution, a run_resume event opens the new incarnation's
// stream, and the result reports Resumed=true with TotalCost spanning every
// incarnation's checkpointed spend.
func (s *Session) ResumeRun(ctx context.Context, runID string) (RunResult, error) {
	if err := s.requireStore(); err != nil {
		return RunResult{}, err
	}
	rs, err := s.store.LoadRun(runID)
	if err != nil {
		return RunResult{}, fmt.Errorf("repro: %w", err)
	}
	if rs.Completed {
		return RunResult{}, fmt.Errorf("repro: run %s already completed; nothing to resume", runID)
	}
	if len(rs.Truth) != s.D() {
		return RunResult{}, fmt.Errorf("repro: run %s has %d dims, session query has %d epps", runID, len(rs.Truth), s.D())
	}
	if rs.TraceID != "" {
		// Rejoin the original incarnation's trace: the resumed run's spans
		// carry the same trace ID, with a deterministic parent span ID
		// derived from it (the resume has no live caller span to inherit).
		ctx = trace.WithContext(ctx, trace.Traceparent{
			TraceID: rs.TraceID,
			SpanID:  trace.SpanIDFor(rs.TraceID, "resume:"+runID),
			Sampled: true,
		})
	}
	// The resuming incarnation owns the run under the session's current
	// ownership epoch — after a failover advanced it, the previous owner's
	// still-running incarnation is fenced out of the store (see epoch.go).
	rs.Epoch = s.store.Epoch()
	rs.Resumed = true
	resume := rs.Discovery.Clone()
	return s.runDurable(ctx, Algorithm(rs.Algorithm), Location(rs.Truth), runstate.NewTracker(s.store, *rs), &resume)
}

// runDurable drives a tracked run and seals the terminal snapshot, with the
// run's result, on any completed outcome (success or degraded completion);
// crashed and aborted runs keep their last checkpoint so they stay
// resumable.
func (s *Session) runDurable(ctx context.Context, a Algorithm, truth Location, tr *runstate.Tracker, resume *runstate.Discovery) (RunResult, error) {
	res, err := s.runFull(ctx, a, truth, nil, tr, resume)
	if err != nil {
		return res, err
	}
	sum := runstate.Summary{TotalCost: res.TotalCost, OptimalCost: res.OptimalCost, SubOpt: res.SubOpt, Degraded: res.Degraded}
	if ferr := tr.Finish(res.Events, sum); ferr != nil {
		return res, fmt.Errorf("repro: run %s finished but its terminal snapshot failed: %w", res.RunID, ferr)
	}
	return res, nil
}

// DurableRuns lists every durable run snapshot in the session's data
// directory, completed or not, sorted by run ID.
func (s *Session) DurableRuns() ([]string, error) {
	if err := s.requireStore(); err != nil {
		return nil, err
	}
	ids, err := s.store.Runs()
	if err != nil {
		return nil, fmt.Errorf("repro: %w", err)
	}
	return ids, nil
}

// DurableRunState loads a durable run's last snapshot: its checkpointed
// discovery state (restart contour, budget ledger across incarnations),
// whether it was resumed, and, once Completed, the run's result.
func (s *Session) DurableRunState(runID string) (*runstate.RunState, error) {
	if err := s.requireStore(); err != nil {
		return nil, err
	}
	rs, err := s.store.LoadRun(runID)
	if err != nil {
		return nil, fmt.Errorf("repro: %w", err)
	}
	return rs, nil
}

// AdvanceOwnershipEpoch fences out every previous owner of this session's
// durable state: runs started or resumed after the advance stamp the new
// epoch, and checkpoints stamped with any older epoch are rejected with a
// terminal fencing error (runstate.IsFenced). A fleet node calls this once
// when it adopts an orphaned session, before resuming its interrupted runs;
// node names the new owner for diagnostics.
func (s *Session) AdvanceOwnershipEpoch(node string) (int64, error) {
	if err := s.requireStore(); err != nil {
		return 0, err
	}
	return s.store.AdvanceEpoch(node)
}

// requireStore guards the durable API against sessions built without a data
// directory.
func (s *Session) requireStore() error {
	if s.store == nil {
		return fmt.Errorf("repro: session is not durable (set Options.DataDir)")
	}
	return nil
}
