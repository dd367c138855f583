// Package telemetry is the structured observability layer of the library:
// typed run events recorded by the discovery algorithms and the execution
// engine, and a dependency-free metrics registry with Prometheus text
// exposition (registry.go).
//
// The paper's guarantees are behavioral — MSO comes from what the executor
// did at run time: which contours were entered, which plans ran in spill
// mode, which half-spaces were pruned (Lemma 3.1), when the discovery
// jumped contours (Lemma 3.2). Events make that behavior machine-readable;
// the legacy human trace is a deterministic rendering of the event stream
// (render.go), so nothing is recorded twice.
//
// A Recorder travels on the context. Emitters call
//
//	telemetry.From(ctx).Record(telemetry.Event{...})
//
// unconditionally: a nil Recorder (no telemetry requested) records nothing,
// so paths that are not observed — whole-space sweeps, benchmarks — pay one
// nil check per event.
package telemetry

import (
	"context"
	"sync"
)

// Kind discriminates the event types of a robust processing run.
type Kind string

// The event kinds, in rough lifecycle order.
const (
	// ContourEnter marks the discovery entering an iso-cost contour.
	ContourEnter Kind = "contour_enter"
	// PlanExec is a regular (non-spill) budgeted plan execution: a
	// PlanBouquet step, the terminal 1-D phase of SpillBound/AlignedBound,
	// or the Native baseline's single unbudgeted execution.
	PlanExec Kind = "plan_exec"
	// SpillExec is a spill-mode execution on one ESS dimension (Sec 3.1.2).
	SpillExec Kind = "spill_exec"
	// HalfSpacePrune records a fully learnt selectivity restricting the
	// effective search space (Lemma 3.1's half-space pruning).
	HalfSpacePrune Kind = "half_space_prune"
	// BudgetSpend is the engine-level accounting of one execution: budget
	// assigned vs cost charged, emitted by the cost-model simulator and the
	// row engine adapter.
	BudgetSpend Kind = "budget_spend"
	// BudgetAbort records the engine cutting an execution off at its budget:
	// an overrunning operator's charge would have passed it, so the charge is
	// clamped to the budget and stands in the ledger, and discovery resumes
	// at the next plan/contour.
	BudgetAbort Kind = "budget_abort"
	// ESSEscape records run-time monitoring driving a learned selectivity
	// past the ESS boundary; the guard escalates to the safe path (the
	// max-corner terminal plan in native mode) instead of indexing off-grid.
	ESSEscape Kind = "ess_escape"
	// Retry records the resilience layer retrying (or giving up on) a
	// failed execution step.
	Retry Kind = "retry"
	// Degrade records the fall back to the Native plan after the retry
	// budget was exhausted; the MSO guarantee no longer applies.
	Degrade Kind = "degrade"
	// CheckpointSave records a durable run-state snapshot landing at a
	// contour boundary (crash tolerance; Spent carries the budget ledger,
	// Detail the run ID).
	CheckpointSave Kind = "checkpoint_save"
	// RunResume opens the event stream of a resumed incarnation: Contour is
	// the restart contour, Spent the ledger carried over from the crashed
	// incarnation, Detail the run ID.
	RunResume Kind = "run_resume"
	// Done terminates the stream with the run's aggregate outcome.
	Done Kind = "done"

	// BuildChunk records one ESS-build worker finishing its contiguous grid
	// range [CellLo, CellHi): the per-chunk construction spans of a
	// session-build trace.
	BuildChunk Kind = "build_chunk"
	// BuildMemo records the post-build session assembly (plan-diagram
	// reduction and the shared memoized optimizer).
	BuildMemo Kind = "build_memo"

	// PeerDown and PeerUp record fleet heartbeat state transitions: a peer
	// crossing the mark-down (consecutive probe failures) or mark-up
	// (consecutive probe successes) hysteresis threshold. Detail carries the
	// peer address; Contour carries the transition ordinal.
	PeerDown Kind = "peer_down"
	PeerUp   Kind = "peer_up"
	// Failover records an orphaned durable run being resumed by a new owner
	// after its previous owner was marked down: Detail carries the run ID,
	// Mode the adopting node, Spent the ledger the new incarnation resumed
	// at. Injected into the resumed run's stream (and the fleet membership
	// stream) so failovers show up as zero-width markers in flamegraphs.
	Failover Kind = "failover"
	// BrownoutStage records a staged-brownout transition on a node: Contour
	// carries the new stage, Dim the previous one, Detail the node address.
	// Recorded into the fleet membership stream so brownout episodes render
	// as zero-width markers on the same timeline as peer transitions.
	BrownoutStage Kind = "brownout_stage"
)

// Event is one typed run-time occurrence. One struct covers every kind;
// fields irrelevant to a kind stay at their zero value and are elided from
// JSON where unambiguous. Dim uses -1 (not 0) for "no dimension" since 0 is
// a valid ESS dimension.
type Event struct {
	// Seq is the 0-based position in the run's event stream.
	Seq int `json:"seq"`
	// Kind discriminates the event type.
	Kind Kind `json:"kind"`
	// Contour is the 1-based iso-cost contour (0 = not contour-scoped).
	Contour int `json:"contour,omitempty"`
	// Dim is the ESS dimension spilled/pruned on; -1 for regular
	// executions and non-dimensional events.
	Dim int `json:"dim"`
	// PlanID is the executed plan's POSP index.
	PlanID int `json:"planID,omitempty"`
	// Budget and Spent are the assigned and charged costs; Budget -1 marks
	// an unbudgeted execution.
	Budget float64 `json:"budget,omitempty"`
	Spent  float64 `json:"spent,omitempty"`
	// Completed reports completion within budget.
	Completed bool `json:"completed,omitempty"`
	// Learned is the selectivity information gained on Dim.
	Learned float64 `json:"learned,omitempty"`
	// Repeat marks a repeat spill (same contour, P^j_max changed).
	Repeat bool `json:"repeat,omitempty"`
	// Penalty is AlignedBound's induced-alignment penalty for the
	// execution (1 = natively aligned).
	Penalty float64 `json:"penalty,omitempty"`
	// Mode refines the kind: "native" (baseline execution), "exec"/"spill"
	// (BudgetSpend origin), "rowexec" (row-engine BudgetSpend).
	Mode string `json:"mode,omitempty"`
	// Location is a selectivity location attached to the event (the
	// optimizer estimate for native/degrade events).
	Location []float64 `json:"location,omitempty"`
	// Detail carries free text: retry notes and degrade causes.
	Detail string `json:"detail,omitempty"`
	// Final marks a Retry event that records retry exhaustion (the
	// "giving up" note) rather than an actual re-attempt.
	Final bool `json:"final,omitempty"`
	// TotalCost, SubOpt and Guarantee carry run aggregates on Done and
	// Degrade events.
	TotalCost float64 `json:"totalCost,omitempty"`
	SubOpt    float64 `json:"subOpt,omitempty"`
	Guarantee float64 `json:"guarantee,omitempty"`
	// Algorithm names the strategy on Done/Degrade events.
	Algorithm string `json:"algorithm,omitempty"`
	// CellLo and CellHi are the half-open grid-cell range of a BuildChunk
	// event (zero on every other kind).
	CellLo int `json:"cellLo,omitempty"`
	CellHi int `json:"cellHi,omitempty"`
}

// Charged reports whether the event is one execution charged to the run's
// budget ledger: a plan_exec or spill_exec with no Mode. The native
// baseline's unbudgeted execution ("native") and the guard's safe-path
// terminal plan ("guard") are outside the ledger. RunResult.Steps and every
// durable snapshot's Spent and Executions are folds of the charged events,
// so each execution is recorded once, here.
func (e Event) Charged() bool {
	return (e.Kind == PlanExec || e.Kind == SpillExec) && e.Mode == ""
}

// Recorder accumulates the event stream of one run. It is safe for
// concurrent use (the resilience layer and the engine may record from the
// same step), and a nil *Recorder is a valid no-op sink.
type Recorder struct {
	mu          sync.Mutex
	events      []Event
	lastContour int
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{lastContour: -1} }

// Record appends the event, assigning its sequence number. Recording on a
// nil recorder is a no-op, so emitters need no nil checks.
func (r *Recorder) Record(ev Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	ev.Seq = len(r.events)
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

// EnterContour records a ContourEnter event for the 1-based contour,
// deduplicating consecutive entries of the same contour — the hand-off from
// a spill phase to the terminal 1-D phase re-enters the contour it was
// already exploring, which is one entry, not two.
func (r *Recorder) EnterContour(contour int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.lastContour != contour {
		r.lastContour = contour
		r.events = append(r.events, Event{Seq: len(r.events), Kind: ContourEnter, Contour: contour, Dim: -1})
	}
	r.mu.Unlock()
}

// Events returns a copy of the stream recorded so far.
func (r *Recorder) Events() []Event { return r.EventsFrom(0) }

// EventsFrom returns a copy of the events recorded from index i on (nil
// when i is past the end), so an incremental fold reads only what it has
// not seen yet.
func (r *Recorder) EventsFrom(i int) []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if i >= len(r.events) {
		return nil
	}
	return append([]Event(nil), r.events[i:]...)
}

// Len reports the number of events recorded so far.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// ctxKey keys the recorder on a context.
type ctxKey struct{}

// With attaches the recorder to the context; the discovery runners and the
// execution engine pick it up with From.
func With(ctx context.Context, r *Recorder) context.Context {
	return context.WithValue(ctx, ctxKey{}, r)
}

// From extracts the context's recorder, or nil (a valid no-op sink) when
// none was attached.
func From(ctx context.Context) *Recorder {
	r, _ := ctx.Value(ctxKey{}).(*Recorder)
	return r
}
