package repro

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"

	"repro/internal/bouquet"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/ess"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/native"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/runstate"
	"repro/internal/sqlmini"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Algorithm selects a query processing strategy by its canonical name (see
// strategy.go), so every Algorithm-typed API accepts any strategy, not just
// the constants below.
type Algorithm string

// The paper's processing strategies (see Strategies() for the full set,
// including the selection strategies of selection.go).
const (
	// Native is the traditional optimize-then-execute baseline: pick the
	// plan optimal at the statistics estimate and run it regardless.
	Native Algorithm = "native"
	// PlanBouquet is Dutt & Haritsa's contour-budgeted discovery baseline.
	PlanBouquet Algorithm = "planbouquet"
	// SpillBound is the paper's core algorithm (MSO ≤ D²+3D).
	SpillBound Algorithm = "spillbound"
	// AlignedBound is the alignment-exploiting variant
	// (MSO ∈ [2D+2, D²+3D]).
	AlignedBound Algorithm = "alignedbound"
)

// String names the algorithm: the strategy's canonical name.
func (a Algorithm) String() string { return string(a) }

// Options configures a Session.
type Options struct {
	// Params is the platform cost profile.
	Params CostParams
	// GridRes is the per-dimension ESS grid resolution.
	GridRes int
	// GridLo is the smallest grid selectivity.
	GridLo float64
	// ContourRatio is the iso-cost contour cost ratio (paper default 2).
	ContourRatio float64
	// ReductionLambda is PlanBouquet's anorexic reduction threshold.
	ReductionLambda float64
	// Workers bounds the parallelism of ESS construction and whole-space
	// sweeps: 0 uses GOMAXPROCS, 1 forces serial execution. Results are
	// identical regardless of the worker count.
	Workers int
	// SweepSeed drives the deterministic location subsample when a sweep's
	// MaxLocations budget is exceeded; 0 uses the default seed 1, so
	// sampled sweeps are reproducible unless explicitly varied.
	SweepSeed int64
	// BuildProgress, when non-nil, observes ESS construction progress as
	// (cells optimized, total cells), once per cell (ess.BuildProgress). It
	// is invoked concurrently from build workers, whose calls may arrive
	// out of order; implementations must be safe for concurrent use.
	BuildProgress func(done, total int)
	// DataDir, when non-empty, makes the session durable: the built ESS is
	// persisted under the directory (and rehydrated on the next start,
	// skipping the optimizer enumeration), and RunDurable/ResumeRun
	// checkpoint run state there so interrupted runs survive a process
	// crash. The directory is created if needed; one directory serves one
	// session (query + options) at a time.
	DataDir string
}

// workers resolves the configured parallelism (0 = GOMAXPROCS).
func (o Options) workers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// sweepSeed resolves the sampled-sweep seed (0 = the default seed 1).
func (o Options) sweepSeed() int64 {
	if o.SweepSeed == 0 {
		return 1
	}
	return o.SweepSeed
}

// DefaultOptions returns the paper-faithful defaults with a moderate grid.
func DefaultOptions() Options {
	return Options{
		Params:          PostgresProfile(),
		GridRes:         12,
		GridLo:          1e-6,
		ContourRatio:    ess.CostDoublingRatio,
		ReductionLambda: 0.2,
	}
}

// Session holds everything needed to process one query robustly: the bound
// query, its cost model, the explored ESS (POSP + optimal cost surface +
// contours), the reduced plan diagram for PlanBouquet, and a shared
// memoized optimizer answering per-run oracle calls.
type Session struct {
	opts  Options
	query *query.Query
	model *cost.Model
	space *ess.Space
	diag  *bouquet.Diagram
	opt   *optimizer.Shared
	store *runstate.Store // non-nil iff Options.DataDir was set

	// pbGuarantee is PlanBouquet's 4(1+λ)ρ over diag, fixed once the
	// diagram exists: runs, degrades and session info read it.
	pbGuarantee float64

	// selMu guards selections, the per-session memo of the selection
	// strategies' plan choices (see selection.go): strategy values are
	// shared across sessions, so their per-session state lives
	// here, computed once and reused by runs and sweeps alike.
	selMu      sync.Mutex
	selections map[string]selectionChoice
}

// NewSession parses and binds the SQL against the catalog, marks the given
// join predicates (rendered "alias.col = alias.col") as error-prone, and
// builds the ESS by one optimizer DP over the whole grid, parallelized
// across Options.Workers (GOMAXPROCS by default). It is newSessionContext
// with a background context.
func NewSession(cat *Catalog, sql string, epps []string, opts Options) (*Session, error) {
	return newSessionContext(context.Background(), cat, sql, epps, opts)
}

// newSessionContext is NewSession with cancellation: the ESS construction —
// the session's long-running offline phase — checks the context between
// chunks of its work and abandons the build with the context's error on
// cancel or deadline expiry. Options.BuildProgress, when set, observes the
// build as it runs.
func newSessionContext(ctx context.Context, cat *Catalog, sql string, epps []string, opts Options) (*Session, error) {
	if opts.GridRes < 2 {
		return nil, fmt.Errorf("repro: grid resolution %d too small", opts.GridRes)
	}
	q, m, err := bindQuery(cat, sql, epps, opts)
	if err != nil {
		return nil, err
	}
	grid := ess.NewGrid(q.D(), opts.GridRes, opts.GridLo)

	var store *runstate.Store
	var sp *ess.Space
	if opts.DataDir != "" {
		store, err = runstate.NewStore(opts.DataDir)
		if err != nil {
			return nil, err
		}
		// Rehydrate the persisted ESS when one matching the requested grid
		// exists — a restarted process then skips the optimizer enumeration
		// entirely. A missing, corrupt or grid-mismatched file falls back to
		// a fresh build (which then replaces it).
		sp = loadSpaceFile(store.SpacePath(), m, grid)
	}
	if sp == nil {
		sp, err = ess.BuildParallelContext(ctx, m, grid, opts.workers(), ess.BuildProgress(opts.BuildProgress))
		if err != nil {
			return nil, err
		}
		if store != nil {
			if err := saveSpaceFile(store.SpacePath(), sp); err != nil {
				return nil, err
			}
		}
	}
	s, err := newSession(opts, q, m, sp)
	if err != nil {
		return nil, err
	}
	// The post-build assembly (diagram reduction + shared optimizer memo)
	// closes a traced session build.
	telemetry.From(ctx).Record(telemetry.Event{Kind: telemetry.BuildMemo, Dim: -1})
	s.store = store
	return s, nil
}

// bindQuery is newSessionContext's bind step: it parses the SQL against the
// catalog, marks the error-prone join predicates and builds the query's
// cost model. It first rejects a contour ratio the session could not build
// its contours with; a session fixes PlanBouquet's guarantee from them up
// front.
func bindQuery(cat *Catalog, sql string, epps []string, opts Options) (*query.Query, *cost.Model, error) {
	if opts.ContourRatio <= 1 {
		return nil, nil, fmt.Errorf("repro: contour ratio %g must exceed 1", opts.ContourRatio)
	}
	q, err := sqlmini.Parse(cat, sql)
	if err != nil {
		return nil, nil, err
	}
	if err := q.MarkEPPs(epps...); err != nil {
		return nil, nil, err
	}
	m, err := cost.NewModel(q, opts.Params)
	if err != nil {
		return nil, nil, err
	}
	return q, m, nil
}

// loadSpaceFile loads a persisted ESS and validates it against the requested
// grid, returning nil (build from scratch) on any failure — durability must
// never wedge session construction on a stale artifact.
func loadSpaceFile(path string, m *cost.Model, want ess.Grid) *ess.Space {
	f, err := os.Open(path)
	if err != nil {
		return nil
	}
	defer f.Close()
	sp, err := ess.Load(f, m)
	if err != nil || !gridsEqual(sp.Grid, want) {
		return nil
	}
	return sp
}

// saveSpaceFile persists the built ESS atomically next to the run snapshots.
func saveSpaceFile(path string, sp *ess.Space) error {
	var buf bytes.Buffer
	if err := sp.Save(&buf); err != nil {
		return err
	}
	return runstate.WriteFileAtomic(path, buf.Bytes())
}

// gridsEqual reports whether two grids have identical point sets. Both sides
// derive from the same deterministic construction, so exact float comparison
// is the correct check (any difference means different options).
func gridsEqual(a, b ess.Grid) bool {
	if a.D != b.D || len(a.Points) != len(b.Points) {
		return false
	}
	for d := range a.Points {
		if len(a.Points[d]) != len(b.Points[d]) {
			return false
		}
		for i := range a.Points[d] {
			if a.Points[d][i] != b.Points[d][i] {
				return false
			}
		}
	}
	return true
}

// newSession assembles a Session around a built space: the PlanBouquet
// diagram with its guarantee and the session-lifetime shared optimizer.
func newSession(opts Options, q *query.Query, m *cost.Model, sp *ess.Space) (*Session, error) {
	o, err := optimizer.NewShared(m)
	if err != nil {
		return nil, err
	}
	diag := bouquet.Reduce(sp, opts.ReductionLambda)
	return &Session{
		opts:        opts,
		query:       q,
		model:       m,
		space:       sp,
		diag:        diag,
		opt:         o,
		pbGuarantee: diag.Guarantee(sp.ContourCosts(opts.ContourRatio)),
	}, nil
}

// D returns the number of error-prone predicates.
func (s *Session) D() int { return s.query.D() }

// POSPSize returns the number of distinct plans optimal somewhere in the
// ESS.
func (s *Session) POSPSize() int { return len(s.space.Plans()) }

// ContourCount returns the number of doubling iso-cost contours.
func (s *Session) ContourCount() int { return len(s.space.ContourCosts(s.opts.ContourRatio)) }

// EstimateLocation returns the traditional optimizer's statistics-derived
// selectivity estimate for the epps.
func (s *Session) EstimateLocation() Location { return s.model.EstimateLocation() }

// Guarantee returns the strategy's MSO guarantee for this session:
// PlanBouquet's behavioral 4(1+λ)ρ, SpillBound's structural D²+3D,
// AlignedBound's worst-case D²+3D, and +Inf (none) for the native baseline,
// the selection strategies, and unknown names.
func (s *Session) Guarantee(a Algorithm) float64 {
	st, ok := LookupStrategy(string(a))
	if !ok {
		return math.Inf(1)
	}
	return st.guarantee(s)
}

// ExecutionStep is one budgeted execution of a robust run.
type ExecutionStep struct {
	// Contour is the 1-based contour number.
	Contour int
	// SpillDim is the ESS dimension spilled on, or -1 for regular runs.
	SpillDim int
	// PlanID is the executed plan's POSP index.
	PlanID int
	// Budget and Spent are the assigned and charged costs.
	Budget, Spent float64
	// Completed reports completion within budget.
	Completed bool
	// Learned is the selectivity learnt for SpillDim (exact on completion,
	// monitoring lower bound otherwise).
	Learned float64
}

// RunResult reports one query processing run at a hidden true location.
type RunResult struct {
	// Algorithm is the strategy used.
	Algorithm Algorithm
	// Steps lists the budgeted executions: the charged events of Events
	// (telemetry.Event.Charged), in order. It is nil when no execution was
	// charged — the native baseline, which runs one plan without budget,
	// and a run that crashed before its first execution.
	Steps []ExecutionStep
	// TotalCost is the strategy's total charged cost.
	TotalCost float64
	// OptimalCost is the oracle cost Cost(P_qa, q_a).
	OptimalCost float64
	// SubOpt is TotalCost/OptimalCost (Eq. 1/3).
	SubOpt float64
	// Events is the typed run-event stream recorded during the run: contour
	// entries, budgeted executions, half-space prunes, budget accounting,
	// retries, degradation, and the terminal summary, in emission order.
	// It is the run's only ledger: Steps, Trace, Retries, Degraded,
	// DegradedReason and GuardVerdict are all derived from it.
	Events []telemetry.Event
	// Trace is a human-readable execution transcript — the deterministic
	// rendering of Events (telemetry.RenderTrace).
	Trace string
	// Retries counts the step retry attempts the resilience layer performed
	// (transient failures absorbed without degrading).
	Retries int
	// Degraded reports that the robust discovery failed mid-run (after
	// exhausting retries) and the session fell back to the Native
	// estimate-optimal plan; the MSO guarantee no longer applies and the
	// trace records the downgrade.
	Degraded bool
	// DegradedReason is the terminal failure that forced the fallback
	// (empty when Degraded is false).
	DegradedReason string
	// GuardVerdict reports runtime-guard interventions during the run:
	// "budget_abort" when the engine cut at least one execution off at its
	// budget (discovery continued under the enforced ledger),
	// "ess_escape" when monitoring left the ESS and the run completed via the
	// safe path, "" for unguarded or clean runs.
	GuardVerdict string
	// RunID names the durable run the result belongs to (empty for plain,
	// non-durable runs).
	RunID string
	// Resumed reports that the run was rehydrated from a crash checkpoint:
	// TotalCost then includes the budget ledger carried over from the
	// interrupted incarnation(s), so SubOpt accounts the whole run.
	Resumed bool
	// TraceID identifies the run's trace: the W3C trace ID propagated on the
	// context (the server's traceparent middleware) or a fresh random one.
	// A crash-resumed run reuses the original incarnation's trace ID, so one
	// trace spans every process incarnation. The span tree is derived from
	// Events (internal/trace.FromRun). Excluded from the JSON form:
	// a minted trace ID is random, and serialized RunResults (goldens,
	// caches) must stay deterministic — carriers that want it in-band (the
	// server's run response) surface it under their own key.
	TraceID string `json:"-"`
}

// Run processes the query with the chosen algorithm against a true
// selectivity location (unknown to the algorithm; used only by the
// simulated executor) and reports cost and sub-optimality.
func (s *Session) Run(a Algorithm, truth Location) (RunResult, error) {
	return s.runFull(context.Background(), a, truth, nil, nil, nil)
}

// RunContext is Run with cancellation and resilience: the context's
// deadline/cancel aborts the discovery at the next contour or execution
// boundary (returning the context's error), fault plans attached via
// WithFaults inject failures, and a step that keeps failing past the
// retry policy degrades the run to the Native plan instead of erroring out
// (see RunResult.Degraded).
func (s *Session) RunContext(ctx context.Context, a Algorithm, truth Location) (RunResult, error) {
	return s.runFull(ctx, a, truth, nil, nil, nil)
}

// checkTruth rejects a truth location the session cannot run: one with the
// wrong dimensionality or a selectivity outside (0,1].
func (s *Session) checkTruth(truth Location) error {
	if len(truth) != s.D() {
		return fmt.Errorf("repro: truth has %d dims, query has %d epps", len(truth), s.D())
	}
	for _, v := range truth {
		if v <= 0 || v > 1 {
			return fmt.Errorf("repro: selectivity %g outside (0,1]", v)
		}
	}
	return nil
}

// runFull is the one run driver: one robust processing run with the full
// degradation ladder (algorithm → step retry with exponential backoff →
// Native-plan fallback), an optional injected cost-model error, and
// optional durability. A non-nil tracker checkpoints the discovery state at
// contour boundaries; a non-nil resume restores a checkpointed state
// (restart contour, learnt selectivities, budget ledger) before the first
// execution.
func (s *Session) runFull(ctx context.Context, a Algorithm, truth Location, costErr engine.CostErrorFn, tr *runstate.Tracker, resume *runstate.Discovery) (RunResult, error) {
	if err := s.checkTruth(truth); err != nil {
		return RunResult{}, err
	}
	if err := ctx.Err(); err != nil {
		return RunResult{}, err
	}
	st, err := ParseStrategy(string(a))
	if err != nil {
		return RunResult{}, err
	}
	opt := s.optimalCost(truth)
	res := RunResult{Algorithm: a, OptimalCost: opt}
	e, err := engine.NewChecked(s.model, truth)
	if err != nil {
		return RunResult{}, fmt.Errorf("repro: %w", err)
	}
	e.CostError = costErr
	// The executor stack, innermost out: engine → retry. The engine cuts
	// every execution off at its budget and checks every learned
	// selectivity against the ESS; its aborts and escapes are classified
	// terminal, so the retry layer never re-runs them.
	rex := &engine.Resilient{Exec: e}

	// Every run records into a fresh context-carried recorder: the discovery
	// layers (bouquet, spillbound, aligned, engine, rowexec) emit typed
	// events into it, and the result's Trace/Retries/Degraded fields are all
	// derived from the one stream below.
	rec := telemetry.NewRecorder()
	ctx = telemetry.With(ctx, rec)

	// Every run belongs to a trace: the context's traceparent (an HTTP
	// request's W3C header, a durable run's persisted trace ID) or a fresh
	// random one. The span tree is derived from the event stream afterwards,
	// so the run itself only needs the identity.
	tp, hasTP := trace.FromContext(ctx)
	if !hasTP {
		tp = trace.New()
	}
	res.TraceID = tp.TraceID

	// Durable runs additionally carry a runstate tracker: the discovery
	// layers checkpoint through it, and a resumed run opens its stream with
	// the carried-over ledger (base) so the final accounting spans every
	// process incarnation.
	var base float64
	if tr != nil {
		ctx = runstate.With(ctx, tr)
		res.RunID = tr.State().RunID
		if resume != nil {
			base = resume.Spent
			res.Resumed = true
			rec.Record(telemetry.Event{
				Kind: telemetry.RunResume, Contour: resume.Contour + 1, Dim: -1,
				Spent: base, Detail: res.RunID,
			})
		}
	}

	spent, runErr := st.run(ctx, &strategyRun{sess: s, rex: rex, truth: truth, resume: resume, rec: rec})
	res.TotalCost = spent + base
	if runErr != nil {
		if faults.IsCrash(runErr) {
			// An injected checkpoint crash models the process dying: no
			// retry, no degradation — recovery belongs to ResumeRun. The
			// partial result (events, ledger so far) is returned with the
			// error so chaos harnesses can account the lost work.
			res.SubOpt = res.TotalCost / opt
			return finishRun(rec, res, false), fmt.Errorf("repro: run crashed: %w", runErr)
		}
		if runstate.IsFenced(runErr) {
			// An epoch-fencing rejection means the session failed over and
			// another node owns this run now: terminal, like a crash. No
			// retry and — critically — no Native degradation, which would
			// burn budget racing the legitimate owner.
			res.SubOpt = res.TotalCost / opt
			return finishRun(rec, res, false), fmt.Errorf("repro: run fenced: %w", runErr)
		}
		if errors.Is(runErr, context.Canceled) || errors.Is(runErr, context.DeadlineExceeded) {
			return RunResult{}, fmt.Errorf("repro: run aborted: %w", runErr)
		}
		if engine.IsEscape(runErr) {
			return s.safePath(rec, res, truth)
		}
		return s.degrade(rec, res, a, truth, runErr)
	}
	res.SubOpt = res.TotalCost / opt
	return finishRun(rec, res, true), nil
}

// finishRun seals the run's event stream (the terminal Done summary), takes
// it from the recorder (its last use: the one exact-size copy that the
// result and the trace store keep) and derives every event-sourced
// RunResult field from it in one place, so the steps, trace, retry count
// and degradation flags cannot drift from the events: one pass folds them,
// into a Steps slice sized to the charged events. Retries counts the
// actual retry attempts (a Final "giving up" note records exhaustion, not
// an attempt); the first Degrade event gives the degradation and its
// reason; an ESS escape (the guard abandoned discovery for the safe path)
// dominates budget aborts (discovery went on under the enforced ledger) in
// GuardVerdict.
func finishRun(rec *telemetry.Recorder, res RunResult, completed bool) RunResult {
	rec.Record(telemetry.Event{
		Kind: telemetry.Done, Dim: -1, Algorithm: res.Algorithm.String(),
		TotalCost: res.TotalCost, SubOpt: res.SubOpt, Completed: completed,
	})
	res.Events = rec.Take()
	charged := 0
	for i := range res.Events {
		if res.Events[i].Charged() {
			charged++
		}
	}
	if charged > 0 {
		res.Steps = make([]ExecutionStep, 0, charged)
	}
	for i := range res.Events {
		ev := &res.Events[i]
		switch {
		case ev.Charged():
			res.Steps = append(res.Steps, ExecutionStep{
				Contour: ev.Contour, SpillDim: ev.Dim, PlanID: ev.PlanID,
				Budget: ev.Budget, Spent: ev.Spent, Completed: ev.Completed, Learned: ev.Learned,
			})
		case ev.Kind == telemetry.Retry && !ev.Final:
			res.Retries++
		case ev.Kind == telemetry.Degrade && !res.Degraded:
			res.Degraded, res.DegradedReason = true, ev.Detail
		case ev.Kind == telemetry.ESSEscape:
			res.GuardVerdict = string(telemetry.ESSEscape)
		case ev.Kind == telemetry.BudgetAbort && res.GuardVerdict == "":
			res.GuardVerdict = string(telemetry.BudgetAbort)
		}
	}
	res.Trace = telemetry.RenderTrace(res.Events)
	return res
}

// safePath completes an ESS-escape run: run-time monitoring produced a
// selectivity the ESS cannot contain, so instead of indexing off-grid the
// session executes the max-corner terminal plan — which, by the contour
// construction (Lemma 3.2's terminus), completes at any location the space
// covers — in native (unbudgeted) mode. The discovery spend so far is kept;
// the MSO guarantee still holds in the cost ledger because the terminal
// plan's cost bounds the final contour's budget.
func (s *Session) safePath(rec *telemetry.Recorder, res RunResult, truth Location) (RunResult, error) {
	ci := s.space.Full().MaxCorner()
	spent := s.model.Eval(s.space.PlanAt(ci), truth)
	res.TotalCost += spent
	res.SubOpt = res.TotalCost / res.OptimalCost
	rec.Record(telemetry.Event{
		Kind: telemetry.PlanExec, Dim: -1, Mode: "guard",
		PlanID: s.space.PlanIDAt(ci), Spent: spent, Completed: true,
	})
	return finishRun(rec, res, true), nil
}

// nativePlan optimizes at the statistics estimate — the traditional plan
// and the bottom rung of the degradation ladder. The session's shared
// optimizer memoizes the result, so repeated runs pay one optimization.
func (s *Session) nativePlan() *plan.Plan {
	p, _ := s.opt.Optimize(s.EstimateLocation())
	return p
}

// degrade completes a failed robust run with the Native plan: the partial
// discovery spend is kept (it was really charged), the estimate-optimal
// plan's cost at the truth is added, and a Degrade event records that the
// MSO guarantee no longer holds for this run.
func (s *Session) degrade(rec *telemetry.Recorder, res RunResult, a Algorithm, truth Location, cause error) (RunResult, error) {
	nat := s.model.Eval(s.nativePlan(), truth)
	res.TotalCost += nat
	res.SubOpt = res.TotalCost / res.OptimalCost
	// Strategies without an MSO bound (the selection family) degrade with
	// Guarantee -1 — the event stream's JSON-safe "none" marker, mirroring
	// Budget -1 for unbudgeted executions.
	g := s.Guarantee(a)
	if math.IsInf(g, 1) {
		g = -1
	}
	rec.Record(telemetry.Event{
		Kind: telemetry.Degrade, Dim: -1, Detail: cause.Error(),
		Location: s.EstimateLocation(), Spent: nat,
		Guarantee: g, Algorithm: a.String(),
	})
	return finishRun(rec, res, true), nil
}

// optimalCost optimizes at the exact (possibly off-grid) truth through the
// session's shared memoized optimizer.
func (s *Session) optimalCost(truth Location) float64 {
	_, c := s.opt.Optimize(truth)
	return c
}

// SweepSummary aggregates a whole-ESS robustness evaluation.
type SweepSummary struct {
	// Algorithm is the evaluated strategy.
	Algorithm Algorithm
	// MSO is the maximum sub-optimality over the swept locations (Eq. 4).
	MSO float64
	// ASO is the average sub-optimality (Eq. 8).
	ASO float64
	// Locations is the number of true locations evaluated.
	Locations int
	// WorstLocation attains the MSO.
	WorstLocation Location
}

// Sweep evaluates the algorithm's MSO and ASO by treating (a sample of)
// every ESS grid cell as the true location. maxLocations caps the sweep
// (0 = exhaustive).
func (s *Session) Sweep(a Algorithm, maxLocations int) (SweepSummary, error) {
	return s.SweepContext(context.Background(), a, maxLocations)
}

// SweepContext is Sweep with cancellation: the context is polled between
// location evaluations, and an expired deadline aborts the sweep with the
// context's error. The sweep is sharded across Options.Workers goroutines
// (GOMAXPROCS by default); MSO, ASO and the worst cell are identical to a
// serial sweep regardless of worker count, and sampled sweeps draw their
// locations from Options.SweepSeed.
func (s *Session) SweepContext(ctx context.Context, a Algorithm, maxLocations int) (SweepSummary, error) {
	st, err := ParseStrategy(string(a))
	if err != nil {
		return SweepSummary{}, err
	}
	res, err := metrics.SweepContext(ctx, s.space, st.SweepRun(s), metrics.SweepOptions{
		MaxLocations: maxLocations,
		Seed:         s.opts.sweepSeed(),
		Workers:      s.opts.workers(),
	})
	if err != nil {
		return SweepSummary{}, fmt.Errorf("repro: sweep aborted: %w", err)
	}
	sum := SweepSummary{Algorithm: a, MSO: res.MSO, ASO: res.ASO, Locations: len(res.Cells)}
	if res.MSOCell >= 0 {
		sum.WorstLocation = s.space.Grid.Location(res.MSOCell)
	}
	return sum, nil
}

// NativeMSO returns the native baseline's MSO maximized over both the
// estimate and actual locations (Eq. 2), the paper's headline motivation
// metric. stride subsamples for large grids (1 = exhaustive).
func (s *Session) NativeMSO(stride int) float64 { return native.MSO(s.space, stride) }
