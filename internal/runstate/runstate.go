// Package runstate makes robust-processing runs crash-tolerant: it
// snapshots a run's discovery state at every contour boundary so an
// interrupted run can be resumed with bounded redo instead of being
// restarted from scratch.
//
// The key observation is that SpillBound-style discovery state is
// *monotone*: half-space pruning (paper Lemma 3.1) only ever shrinks the
// candidate region, the contour index only advances, and the budget ledger
// only grows. A snapshot taken at a contour boundary is therefore always a
// valid — merely conservative — restart point: resuming from the last
// durable checkpoint re-executes at most the one contour iteration that was
// in flight when the process died, keeping the MSO accounting intact across
// failures (total spend ≤ uninterrupted spend + one contour's executions).
//
// A Tracker travels on the context, exactly like telemetry.Recorder and
// faults.Plan: the discovery runners (bouquet, spillbound, aligned) call
// Checkpoint at each contour boundary, and the tracker folds the run's
// event stream — charged executions, incomplete spills, half-space prunes —
// into the discovery state and persists a versioned snapshot atomically
// (temp file + rename). Runs that carry no tracker pay one context lookup
// per contour.
package runstate

import (
	"context"
	"sync"

	"repro/internal/faults"
	"repro/internal/telemetry"
)

// Version is the on-disk snapshot format version, validated on load like
// the ESS persistence DTO's.
const Version = 1

// Discovery is the monotone discovery state of a contour-budgeted run at a
// checkpoint boundary. Every field only ever grows (or, for the candidate
// region implied by Learned, shrinks) as the run progresses, which is what
// makes any snapshot a safe restart point.
type Discovery struct {
	// Contour is the contour index (0-based) about to be explored when the
	// snapshot was taken.
	Contour int `json:"contour"`
	// Learned maps ESS dimension → exact selectivity discovered by a
	// completed spill execution (the pruned half-spaces of Lemma 3.1).
	Learned map[int]float64 `json:"learned,omitempty"`
	// Bounds maps ESS dimension → the largest monitoring lower bound
	// observed so far for a not-yet-resolved dimension (run-time
	// selectivity monitoring; informational, monotone nondecreasing).
	Bounds map[int]float64 `json:"bounds,omitempty"`
	// Spent is the budget ledger: total cost charged across all executions
	// — and all process incarnations — before Contour was entered.
	Spent float64 `json:"spent"`
	// Executions counts the budgeted executions behind Spent.
	Executions int `json:"executions"`
	// Events is the number of telemetry events emitted before the
	// checkpoint, so a resumed run can report how much of the stream the
	// crashed incarnation had already published.
	Events int `json:"events"`
}

// Clone returns a deep copy of the discovery state, so callers can hand a
// snapshot to a runner while a live tracker keeps mutating the original.
func (d Discovery) Clone() Discovery { return d.clone() }

// clone deep-copies the discovery state for a race-free snapshot.
func (d Discovery) clone() Discovery {
	out := d
	out.Learned = make(map[int]float64, len(d.Learned))
	for k, v := range d.Learned {
		out.Learned[k] = v
	}
	out.Bounds = make(map[int]float64, len(d.Bounds))
	for k, v := range d.Bounds {
		out.Bounds[k] = v
	}
	return out
}

// RunState is the versioned on-disk snapshot of one durable run: enough to
// re-create the engine (algorithm + truth), re-seed any sampled decision
// (Seed), and restart the discovery from the last contour boundary.
type RunState struct {
	// SchemaVersion is the snapshot format version (see Version).
	SchemaVersion int `json:"version"`
	// RunID names the run within its session's data directory.
	RunID string `json:"runId"`
	// Algorithm is the strategy name (repro.Algorithm.String).
	Algorithm string `json:"algorithm"`
	// Truth is the hidden true selectivity location the run executes at.
	Truth []float64 `json:"truth"`
	// Seed is the session's deterministic sampling seed, recorded so a
	// resumed incarnation reproduces any seeded choices identically.
	Seed int64 `json:"seed,omitempty"`
	// TraceID is the W3C trace ID of the run's first incarnation; resumed
	// incarnations rejoin it, so one trace spans every process the run
	// touched. Optional — snapshots predating tracing load fine without it.
	TraceID string `json:"traceId,omitempty"`
	// Epoch is the session ownership epoch the writer held when it started
	// (or resumed) the run. SaveRun fences writes whose epoch is older than
	// the session's on-disk epoch — see epoch.go. Zero (the single-owner
	// steady state, and every snapshot predating fencing) is never fenced
	// unless the session has actually failed over.
	Epoch int64 `json:"epoch,omitempty"`
	// Completed marks a terminal snapshot: the run finished and is not
	// resumable. A terminal snapshot is the run's complete record.
	Completed bool `json:"completed,omitempty"`
	// Resumed marks a state written by a resumed incarnation (one that
	// started from a crash checkpoint rather than from scratch).
	Resumed bool `json:"resumed,omitempty"`
	// Summary is the completed run's result; zero until Finish (and in
	// terminal snapshots written before the summary was recorded).
	Summary
	// Discovery is the checkpointed discovery state.
	Discovery Discovery `json:"discovery"`
}

// Summary is a completed run's result as its terminal snapshot records it.
type Summary struct {
	TotalCost   float64 `json:"totalCost,omitempty"`
	OptimalCost float64 `json:"optimalCost,omitempty"`
	SubOpt      float64 `json:"subOpt,omitempty"`
	Degraded    bool    `json:"degraded,omitempty"`
}

// Tracker folds the event stream of one in-flight durable run into its
// discovery state and persists it at checkpoint boundaries. The stream is
// the run's only ledger: at each checkpoint (and in Finish) the tracker
// absorbs the events recorded since its last fold, so a snapshot is the
// loaded base state plus a fold of this incarnation's events. It is safe for
// concurrent use and a nil *Tracker is a valid no-op sink (mirroring
// telemetry.Recorder).
type Tracker struct {
	store *Store

	mu     sync.Mutex
	rs     RunState
	folded int // events of this incarnation's stream absorbed so far
}

// NewTracker returns a tracker persisting into store. rs seeds the state:
// a zero Discovery for a fresh run, a loaded snapshot for a resumed one
// (its Spent becomes the ledger base the new incarnation accumulates onto).
func NewTracker(store *Store, rs RunState) *Tracker {
	rs.SchemaVersion = Version
	if rs.Discovery.Learned == nil {
		rs.Discovery.Learned = make(map[int]float64)
	}
	if rs.Discovery.Bounds == nil {
		rs.Discovery.Bounds = make(map[int]float64)
	}
	return &Tracker{store: store, rs: rs}
}

// State returns a deep copy of the current run state.
func (t *Tracker) State() RunState {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.rs
	out.Discovery = t.rs.Discovery.clone()
	return out
}

// absorb folds events — the stream from index t.folded on — into the
// discovery state: a charged execution adds to the ledger, an incomplete
// spill raises its dimension's monitoring bound (keeping the maximum,
// unless the dimension is already learnt), and a half-space prune learns
// the dimension exactly and drops its bound. Callers hold t.mu.
func (t *Tracker) absorb(evs []telemetry.Event) {
	d := &t.rs.Discovery
	for _, ev := range evs {
		switch {
		case ev.Charged():
			d.Spent += ev.Spent
			d.Executions++
			if _, exact := d.Learned[ev.Dim]; ev.Kind == telemetry.SpillExec && !ev.Completed &&
				!exact && ev.Learned > d.Bounds[ev.Dim] {
				d.Bounds[ev.Dim] = ev.Learned
			}
		case ev.Kind == telemetry.HalfSpacePrune:
			d.Learned[ev.Dim] = ev.Learned
			delete(d.Bounds, ev.Dim)
		}
	}
	t.folded += len(evs)
}

// checkpoint folds the events recorded since the last fold and persists the
// state as a restart point for the given contour.
func (t *Tracker) checkpoint(contour int, rec *telemetry.Recorder) (RunState, error) {
	t.mu.Lock()
	t.absorb(rec.EventsFrom(t.folded))
	t.rs.Discovery.Contour = contour
	t.rs.Discovery.Events = t.folded
	snap := t.rs
	snap.Discovery = t.rs.Discovery.clone()
	t.mu.Unlock()
	return snap, t.store.SaveRun(&snap)
}

// Finish folds the rest of the run's final event stream and persists the
// terminal snapshot with the run's result, marking the run complete (and
// thus not resumable). Nil-safe.
func (t *Tracker) Finish(events []telemetry.Event, sum Summary) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.absorb(events[t.folded:])
	t.rs.Completed = true
	t.rs.Summary = sum
	snap := t.rs
	snap.Discovery = t.rs.Discovery.clone()
	t.mu.Unlock()
	return t.store.SaveRun(&snap)
}

// ctxKey keys the tracker on a context.
type ctxKey struct{}

// With attaches the tracker to the context; the discovery runners reach it
// through Checkpoint.
func With(ctx context.Context, t *Tracker) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, t)
}

// From extracts the context's tracker, or nil (a valid no-op sink).
func From(ctx context.Context) *Tracker {
	t, _ := ctx.Value(ctxKey{}).(*Tracker)
	return t
}

// Checkpoint marks a contour boundary: the crash-point injector (if a fault
// plan is attached) may abort the run here, simulating the process dying at
// the boundary *before* the new snapshot lands — the last durable state
// then remains the previous checkpoint, which is exactly the bounded-redo
// case resume must handle. Otherwise the tracker (if any) persists the
// snapshot and records a checkpoint_save telemetry event. Runs carrying
// neither a fault plan nor a tracker pay two context lookups.
func Checkpoint(ctx context.Context, contour int) error {
	if err := faults.From(ctx).OnCheckpoint(); err != nil {
		return err
	}
	t := From(ctx)
	if t == nil {
		return nil
	}
	rec := telemetry.From(ctx)
	snap, err := t.checkpoint(contour, rec)
	if err != nil {
		return err
	}
	rec.Record(telemetry.Event{
		Kind: telemetry.CheckpointSave, Contour: contour + 1, Dim: -1,
		Spent: snap.Discovery.Spent, Detail: snap.RunID,
	})
	return nil
}
