package repro

import (
	"context"
	"fmt"
	"io"

	"repro/internal/aligned"
	"repro/internal/engine"
	"repro/internal/eppid"
	"repro/internal/ess"
	"repro/internal/rowexec"
	"repro/internal/spillbound"
	"repro/internal/sqlmini"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/viz"
)

// This file exposes the deployment-oriented extensions of the library
// (paper Sec 7 and the Sec 4.2 remark): automatic error-prone-predicate
// identification, ESS persistence, parallel ESS construction, contour-ratio
// tuning, bounded cost-model-error injection, and the textual Fig. 7
// renderer.

// IdentifyEPPs parses the SQL against the catalog and returns the k most
// error-prone join predicates (rendered "alias.col = alias.col", ready for
// NewSession) according to the statistics heuristic of internal/eppid —
// the paper's Sec 7 deployment aid. k <= 0 selects every join predicate
// (the conservative fallback).
func IdentifyEPPs(cat *Catalog, sql string, k int) ([]string, error) {
	q, err := sqlmini.Parse(cat, sql)
	if err != nil {
		return nil, err
	}
	ids := eppid.Identify(q, k)
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = q.Joins[id].String()
	}
	return out, nil
}

// SpillBoundGuaranteeWithRatio returns SpillBound's MSO bound under a
// geometric contour ratio r (Sec 4.2 remark); r=2 gives D²+3D.
func SpillBoundGuaranteeWithRatio(d int, r float64) float64 {
	return spillbound.GuaranteeWithRatio(d, r)
}

// OptimalContourRatio returns the contour ratio minimizing SpillBound's
// bound for dimensionality d, with the minimized bound (≈1.82 and 9.9 for
// d=2, per the paper's remark).
func OptimalContourRatio(d int) (ratio, bound float64) { return spillbound.OptimalRatio(d) }

// SaveESS writes the session's built selectivity space (grid, optimal cost
// surface, POSP) so later sessions can skip the optimizer enumeration —
// the paper's Sec 7 offline-preprocessing deployment mode.
func (s *Session) SaveESS(w io.Writer) error { return s.space.Save(w) }

// LoadSession rebuilds a Session from SQL plus a previously saved ESS,
// skipping the grid enumeration. The query and options must match the ones
// the space was built with (dimensionality is validated; costs are trusted).
func LoadSession(cat *Catalog, sql string, epps []string, opts Options, saved io.Reader) (*Session, error) {
	q, err := sqlmini.Parse(cat, sql)
	if err != nil {
		return nil, err
	}
	if err := q.MarkEPPs(epps...); err != nil {
		return nil, err
	}
	m, err := newModel(q, opts.Params)
	if err != nil {
		return nil, err
	}
	sp, err := ess.Load(saved, m)
	if err != nil {
		return nil, err
	}
	return newSession(opts, q, m, sp)
}

// RunWithCostError is Run with bounded cost-model error injected into the
// executor: every execution's true cost is the model's prediction times a
// deterministic factor in [1/(1+delta), 1+delta] keyed by (plan, seed).
// Per paper Sec 7, guarantees inflate by at most (1+delta)².
func (s *Session) RunWithCostError(a Algorithm, truth Location, delta float64, seed uint64) (RunResult, error) {
	if delta < 0 {
		return RunResult{}, fmt.Errorf("repro: negative delta %g", delta)
	}
	return s.run(a, truth, engine.DeterministicCostError(delta, seed))
}

// ContourMap renders the session's 2D ESS as a textual contour-band map.
func (s *Session) ContourMap() (string, error) {
	return viz.ContourMap(s.space, s.opts.ContourRatio)
}

// RenderRun runs the strategy at the given truth and renders the Fig. 7
// style Manhattan discovery profile of its spill executions over the
// contour map (2D only).
func (s *Session) RenderRun(a Algorithm, truth Location) (string, error) {
	res, err := s.Run(a, truth)
	if err != nil {
		return "", err
	}
	var out spillbound.Outcome
	for _, st := range res.Steps {
		out.Executions = append(out.Executions, spillbound.Execution{Dim: st.SpillDim, Learned: st.Learned})
	}
	return viz.Fig7(s.space, s.opts.ContourRatio, out, truth)
}

// GuaranteeRangeAB returns AlignedBound's [2D+2, D²+3D] guarantee range.
func (s *Session) GuaranteeRangeAB() (lo, hi float64) {
	return aligned.GuaranteeLower(s.D()), aligned.GuaranteeUpper(s.D())
}

// RunPhysical executes the chosen discovery strategy end-to-end on the
// row-at-a-time engine over deterministic synthetic data (the closest
// analogue of the paper's modified PostgreSQL): budgets are enforced — and
// selectivities learnt — by actual tuple execution rather than the cost
// simulator. It is the session's run path with one thing swapped: the
// strategy's executor is the row engine instead of the cost-model stack,
// so the result carries the same Steps, Events and derived Trace. rowCap
// bounds each relation's generated cardinality (0 = catalog cardinality;
// keep it small, execution is O(rows)). The reported OptimalCost is the
// cheapest measured execution among the POSP plans, so SubOpt compares like
// with like. Only "discovery" strategies are supported (the native baseline
// and the selection strategies are rejected).
func (s *Session) RunPhysical(a Algorithm, rowCap int64) (RunResult, error) {
	st, ok := LookupStrategy(string(a))
	if !ok || st.Info().Kind != "discovery" {
		return RunResult{}, fmt.Errorf("repro: physical execution supports planbouquet, spillbound, alignedbound; got %v", a)
	}
	re := &rowexec.Engine{Query: s.query, Params: s.opts.Params, RowCap: rowCap}
	rec := telemetry.NewRecorder()
	ctx := telemetry.With(context.Background(), rec)
	out, err := st.Run(ctx, &StrategyRun{sess: s, rex: &rowexec.Adapter{E: re}, rec: rec})
	if err != nil {
		return RunResult{}, fmt.Errorf("repro: physical run: %w", err)
	}
	// Physical oracle: the cheapest measured POSP plan execution.
	best := -1.0
	for _, p := range s.space.Plans() {
		r, err := re.Run(p, 0)
		if err != nil || !r.Completed {
			continue
		}
		if best < 0 || r.Spent < best {
			best = r.Spent
		}
	}
	if best <= 0 {
		return RunResult{}, fmt.Errorf("repro: no POSP plan executed physically")
	}
	res := RunResult{
		Algorithm: a, TotalCost: out.TotalCost,
		OptimalCost: best, SubOpt: out.TotalCost / best, TraceID: trace.New().TraceID,
	}
	return finishRun(rec, res, true), nil
}
