package repro

import (
	"context"
	"fmt"
	"math"

	"repro/internal/aligned"
	"repro/internal/engine"
	"repro/internal/eppid"
	"repro/internal/rowexec"
	"repro/internal/sqlmini"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/viz"
)

// This file exposes the deployment-oriented extensions of the library
// (paper Sec 7): automatic error-prone-predicate identification, bounded
// cost-model-error injection, the textual Fig. 7 renderer and physical
// execution on the row engine. ESS persistence is Options.DataDir.

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

// RunWithCostError is Run with bounded cost-model error injected into the
// executor: every execution's true cost is the model's prediction times a
// deterministic factor in [1/(1+delta), 1+delta] keyed by (plan, seed).
// Per paper Sec 7, guarantees inflate by at most (1+delta)².
func (s *Session) RunWithCostError(a Algorithm, truth Location, delta float64, seed uint64) (RunResult, error) {
	if !(delta >= 0) || math.IsInf(delta, 1) {
		return RunResult{}, fmt.Errorf("repro: negative or non-finite delta %g", delta)
	}
	return s.runFull(context.Background(), a, truth, engine.DeterministicCostError(delta, seed), nil, nil)
}

// RenderRun runs the strategy at the given truth and renders the Fig. 7
// style Manhattan discovery profile of its spill executions over the
// contour map (2D only).
func (s *Session) RenderRun(a Algorithm, truth Location) (string, error) {
	res, err := s.Run(a, truth)
	if err != nil {
		return "", err
	}
	return viz.Fig7(s.space, s.opts.ContourRatio, res.Events, truth)
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
	if !ok || st.info.Kind != "discovery" {
		return RunResult{}, fmt.Errorf("repro: physical execution supports planbouquet, spillbound, alignedbound; got %v", a)
	}
	re := &rowexec.Engine{Query: s.query, Params: s.opts.Params, RowCap: rowCap}
	rec := telemetry.NewRecorder()
	ctx := telemetry.With(context.Background(), rec)
	spent, err := st.run(ctx, &strategyRun{sess: s, rex: &rowexec.Adapter{E: re}, rec: rec})
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
		Algorithm: a, TotalCost: spent,
		OptimalCost: best, SubOpt: spent / best, TraceID: trace.New().TraceID,
	}
	return finishRun(rec, res, true), nil
}
