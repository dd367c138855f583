// Server-side durability: session metadata persistence, crash recovery and
// the durable run resources. A server started with Config.DataDir lays out
//
//	<dataDir>/<sessionID>/session.json   creation metadata (this file)
//	<dataDir>/<sessionID>/space.ess      persisted ESS (session layer)
//	<dataDir>/<sessionID>/runs/<id>.json checkpointed run states (runstate)
//
// Recover replays that layout after a restart: every session directory is
// re-registered and rebuilt asynchronously — rehydrating the persisted ESS,
// so a ready session comes back without re-running the optimizer enumeration
// — and each interrupted durable run is resumed from its last checkpoint (or
// failed over with the error recorded on its run resource).

package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	repro "repro"
	"repro/internal/guard"
	"repro/internal/runstate"
	"repro/internal/telemetry"
)

// sessionMeta is a session's creation record: its ID and the create
// request's parameters. Persisted as session.json per durable session, it
// is what restart recovery and fleet adoption resolve the session from, the
// way handleCreateSession does.
type sessionMeta struct {
	ID string `json:"id"`
	createRequest
}

// claimSessionDir creates a pinned session's directory as an exclusive
// cross-node claim: with a shared fleet data dir, in-memory duplicate checks
// cover one process only, so the directory create (Mkdir, not MkdirAll) is
// the arbiter — exactly one node wins, the rest see EEXIST and answer 409.
func claimSessionDir(dir string) error {
	if err := os.MkdirAll(filepath.Dir(dir), 0o755); err != nil {
		return err
	}
	return os.Mkdir(dir, 0o755)
}

// saveSessionMeta atomically persists the creation record into the session
// directory (creating it if needed).
func saveSessionMeta(dir string, meta sessionMeta) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	return runstate.WriteFileAtomic(filepath.Join(dir, "session.json"), data)
}

// loadSessionMeta reads a session directory's creation record.
func loadSessionMeta(dir string) (sessionMeta, error) {
	var meta sessionMeta
	data, err := os.ReadFile(filepath.Join(dir, "session.json"))
	if err != nil {
		return meta, err
	}
	if err := json.Unmarshal(data, &meta); err != nil {
		return meta, fmt.Errorf("session metadata %s: %w", dir, err)
	}
	return meta, nil
}

// Recover re-registers every session persisted under Config.DataDir and
// launches its asynchronous rebuild: the persisted ESS is rehydrated (no
// optimizer enumeration), and once the session is ready its interrupted
// durable runs are resumed from their last checkpoints. Call it once, after
// construction and before serving. Directories whose metadata is unreadable
// are skipped (logged via the returned error list semantics: the first error
// is returned after all recoverable sessions have been launched).
func (s *Server) Recover(ctx context.Context) error {
	if s.cfg.DataDir == "" {
		return nil
	}
	entries, err := os.ReadDir(s.cfg.DataDir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("server: recover: %w", err)
	}
	var firstErr error
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		meta, err := loadSessionMeta(filepath.Join(s.cfg.DataDir, ent.Name()))
		if err != nil {
			if firstErr == nil && !os.IsNotExist(err) {
				firstErr = err
			}
			continue
		}
		if meta.ID == "" {
			meta.ID = ent.Name()
		}
		if err := s.recoverSession(meta, nil); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// AdoptOptions parameterizes AdoptSession: the adopting node's name (stamped
// into the ownership-epoch record and failover trace markers) and a
// per-resumed-run callback for the fleet layer's failover accounting.
type AdoptOptions struct {
	// Node names the new owner for epoch records and trace markers.
	Node string
	// OnFailover is called once per interrupted run the adoption resumed
	// (err nil on success, the resume error otherwise). Optional.
	OnFailover func(runID string, err error)
}

// AdoptSession extends the Recover path from "my sessions" to "orphaned
// sessions": it re-registers ONE session directory from the shared data dir
// — typically one whose previous owner a fleet heartbeat just declared dead
// — advances the session's ownership epoch (fencing out the previous
// owner's late checkpoints), and resumes its interrupted durable runs. The
// session registers synchronously (so requests immediately see it as
// building) and rebuilds asynchronously, exactly like restart recovery.
func (s *Server) AdoptSession(id string, opts AdoptOptions) error {
	if s.cfg.DataDir == "" {
		return fmt.Errorf("server: adopt %s: server has no data directory", id)
	}
	meta, err := loadSessionMeta(filepath.Join(s.cfg.DataDir, id))
	if err != nil {
		return fmt.Errorf("server: adopt %s: %w", id, err)
	}
	if meta.ID == "" {
		meta.ID = id
	}
	return s.recoverSession(meta, &opts)
}

// recoverSession re-registers one persisted session and launches its
// rebuild + run-resume pipeline in the background. A non-nil adopt marks a
// fleet failover adoption rather than own-restart recovery.
func (s *Server) recoverSession(meta sessionMeta, adopt *AdoptOptions) error {
	e, opts, err := s.newEntry(meta)
	if err == nil {
		err = s.register(e)
	}
	if err != nil {
		return fmt.Errorf("server: recover %s: %w", meta.ID, err)
	}
	// Recovery bypasses the build limiter and breaker: these sessions were
	// admitted before the crash, and refusing their rehydration would turn a
	// restart into data loss. The bulkhead still applies to new runs.
	s.startBuild(e, opts, "", false, func(ctx context.Context, sess *repro.Session) {
		if adopt != nil {
			// Fence before the first resume: once the epoch advances, any
			// checkpoint the previous owner's still-running incarnations
			// write is rejected terminally (runstate epoch fencing).
			if _, err := sess.AdvanceOwnershipEpoch(adopt.Node); err != nil {
				s.mu.Lock()
				if runstate.IsEpochRace(err) {
					// Another node won the adoption CAS: it owns the session
					// and has fenced us out. Step aside silently — keeping a
					// local replica (or marking it failed) would advertise
					// state we no longer own; ring convergence re-routes.
					delete(s.sessions, e.id)
				} else {
					e.status = statusFailed
					e.buildErr = fmt.Errorf("server: adopt %s: fence: %w", e.id, err)
				}
				s.mu.Unlock()
				return
			}
		}
		s.resumeInterrupted(ctx, e, sess, adopt)
	})
	return nil
}

// resumeInterrupted drives every interrupted durable run of a recovered
// session to completion from its last checkpoint. A run whose resume fails
// (dimensionality skew, cancellation at shutdown) is failed over: the error
// lands on its run resource instead of wedging recovery, and its checkpoint
// stays on disk for inspection. A snapshot that does not load (torn by a
// crash predating atomic writes, or version-skewed) is skipped.
func (s *Server) resumeInterrupted(ctx context.Context, e *session, sess *repro.Session, adopt *AdoptOptions) {
	all, err := sess.DurableRuns()
	if err != nil {
		return
	}
	var interrupted []string
	for _, rid := range all {
		// Advance the run-ID allocator past EVERY durable run on disk, not
		// just the interrupted ones: with a shared fleet data directory,
		// another node's incarnation of this session may have completed runs
		// this process never saw, and reissuing their IDs would clobber
		// terminal snapshots.
		s.noteRunSeq(e, rid)
		if rs, err := sess.DurableRunState(rid); err == nil && !rs.Completed {
			interrupted = append(interrupted, rid)
		}
	}
	for _, rid := range interrupted {
		res, err := sess.ResumeRun(ctx, rid)
		if adopt != nil && adopt.OnFailover != nil {
			adopt.OnFailover(rid, err)
		}
		if err != nil {
			s.mu.Lock()
			e.failed[rid] = err.Error()
			s.mu.Unlock()
			continue
		}
		if adopt != nil {
			// Stamp the failover into the resumed stream (a zero-width
			// marker at the resume ledger) so the adoption is visible in
			// the run's events, span tree, and flamegraph.
			res.Events = injectFailover(res.Events, adopt.Node, rid)
		}
		s.metrics.resumes.Inc()
		// The resumed incarnation reuses the original trace ID (persisted in
		// the run snapshot), so the recovered tree replaces any partial one:
		// one trace spanning daemon restarts.
		s.accountRun(res.Algorithm, res)
	}
}

// injectFailover inserts a failover marker event directly after the stream's
// run_resume event (or at the head when none exists), carrying the adopting
// node and the resume-point ledger.
func injectFailover(events []telemetry.Event, node, runID string) []telemetry.Event {
	ev := telemetry.Event{Kind: telemetry.Failover, Dim: -1, Detail: runID, Mode: node}
	for i, e := range events {
		if e.Kind == telemetry.RunResume {
			ev.Spent = e.Spent
			out := make([]telemetry.Event, 0, len(events)+1)
			out = append(out, events[:i+1]...)
			out = append(out, ev)
			return append(out, events[i+1:]...)
		}
	}
	return append([]telemetry.Event{ev}, events...)
}

// noteRunSeq advances the session's run-ID allocator past a recovered run
// named with the server's own "r<N>" scheme.
func (s *Server) noteRunSeq(e *session, rid string) {
	n, err := strconv.Atoi(strings.TrimPrefix(rid, "r"))
	if err != nil {
		return
	}
	s.mu.Lock()
	if n > e.runSeq {
		e.runSeq = n
	}
	s.mu.Unlock()
}

// retryAfterSeconds estimates when session capacity plausibly frees up: the
// next idle-eviction sweep (every SessionTTL/4), or a conservative default
// when eviction is disabled.
func (s *Server) retryAfterSeconds() int {
	if s.cfg.SessionTTL <= 0 {
		return 30
	}
	return guard.RetryAfterSeconds(s.cfg.SessionTTL / 4)
}

// runInfo is one durable run resource, read from the run's last snapshot.
type runInfo struct {
	RunID     string `json:"runId"`
	Algorithm string `json:"algorithm"`
	// Status is completed, interrupted, or failed (resume fail-over).
	Status string `json:"status"`
	// Resumed reports the run was rehydrated from a crash checkpoint.
	Resumed bool `json:"resumed,omitempty"`
	// Contour is the checkpointed restart contour (1-based for symmetry
	// with traces; 1 means no contour was completed yet).
	Contour int `json:"contour"`
	// Spent is the checkpointed budget ledger across incarnations.
	Spent float64 `json:"spent"`
	// TotalCost, OptimalCost, SubOpt and Degraded are the result of a
	// completed run (absent from snapshots that predate them).
	TotalCost   float64 `json:"totalCost,omitempty"`
	OptimalCost float64 `json:"optimalCost,omitempty"`
	SubOpt      float64 `json:"subOpt,omitempty"`
	Degraded    bool    `json:"degraded,omitempty"`
	TraceID     string  `json:"traceId,omitempty"`
	// Error is the terminal fail-over error, if any.
	Error string `json:"error,omitempty"`
	// Events is the run's event stream while the trace store holds it
	// under TraceID (GET of one run only).
	Events []telemetry.Event `json:"events,omitempty"`
}

// handleListRuns serves GET /v1/sessions/{id}/runs: every durable run of the
// session with a readable snapshot, recovered or started by this process,
// sorted by run ID, without events.
func (s *Server) handleListRuns(w http.ResponseWriter, r *http.Request) {
	e, ok := s.lookup(w, r.PathValue("id"))
	if !ok {
		return
	}
	sess, ok := s.ready(w, e)
	if !ok {
		return
	}
	if e.dataDir == "" {
		s.writeError(w, http.StatusBadRequest, codeBadRequest,
			fmt.Errorf("session %s is not durable (server started without -data)", e.id))
		return
	}
	ids, err := sess.DurableRuns()
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, codeInternal, err)
		return
	}
	out := make([]runInfo, 0, len(ids))
	for _, rid := range ids {
		if info, ok := s.runInfoFor(e, sess, rid); ok {
			out = append(out, info)
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// handleGetRun serves GET /v1/sessions/{id}/runs/{rid}: the run's snapshot
// state and result summary, with its events while the trace store holds
// them.
func (s *Server) handleGetRun(w http.ResponseWriter, r *http.Request) {
	e, ok := s.lookup(w, r.PathValue("id"))
	if !ok {
		return
	}
	sess, ok := s.ready(w, e)
	if !ok {
		return
	}
	rid := r.PathValue("rid")
	info, ok := s.runInfoFor(e, sess, rid)
	if !ok {
		s.writeError(w, http.StatusNotFound, codeNotFound, fmt.Errorf("no run %q in session %s", rid, e.id))
		return
	}
	info.Events = s.traces.runEvents(info.TraceID, rid)
	writeJSON(w, http.StatusOK, info)
}

// runInfoFor reads a run resource from one load of the run's snapshot; a
// failed resume, which leaves no terminal snapshot, is marked from the
// session's failed table.
func (s *Server) runInfoFor(e *session, sess *repro.Session, rid string) (runInfo, bool) {
	rs, err := sess.DurableRunState(rid)
	if err != nil {
		return runInfo{}, false
	}
	info := runInfo{
		RunID: rid, Algorithm: rs.Algorithm, Status: runInterrupted, Resumed: rs.Resumed,
		Contour: rs.Discovery.Contour + 1, Spent: rs.Discovery.Spent,
		TotalCost: rs.TotalCost, OptimalCost: rs.OptimalCost, SubOpt: rs.SubOpt,
		Degraded: rs.Degraded, TraceID: rs.TraceID,
	}
	if rs.Completed {
		info.Status = runCompleted
		return info, true
	}
	s.mu.Lock()
	msg, failed := e.failed[rid]
	s.mu.Unlock()
	if failed {
		info.Status, info.Resumed, info.Error = runFailed, true, msg
	}
	return info, true
}
