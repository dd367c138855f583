package engine

import (
	"hash/fnv"
	"math"

	"repro/internal/plan"
)

// Cost-model error injection (paper Sec 7): the MSO guarantees assume a
// perfect cost model; if modeling errors are bounded within a δ factor, the
// guarantees carry through inflated by (1+δ)². To validate that claim — and
// to exercise the algorithms' behaviour when executions run slower or
// faster than the optimizer predicted — the engine can apply a per-plan
// multiplicative error to every *execution* cost while the optimizer (and
// hence budgets, contours and plan choices) continues to use the unperturbed
// model.

// CostErrorFn maps a plan to the multiplicative factor its true execution
// cost carries relative to the cost model's prediction.
type CostErrorFn func(p *plan.Plan) float64

// DeterministicCostError returns a CostErrorFn assigning each plan a
// deterministic pseudo-random factor in [1/(1+delta), 1+delta], keyed by the
// plan fingerprint and seed. delta = 0 yields the identity.
func DeterministicCostError(delta float64, seed uint64) CostErrorFn {
	if delta < 0 {
		panic("engine: negative cost-error delta")
	}
	return func(p *plan.Plan) float64 {
		if delta == 0 {
			return 1
		}
		h := fnv.New64a()
		var b [8]byte
		for i := range b {
			b[i] = byte(seed >> (8 * uint(i)))
		}
		h.Write(b[:])
		h.Write([]byte(p.Fingerprint()))
		u := float64(h.Sum64()%1_000_003) / 1_000_003 // [0,1)
		// Log-uniform over [1/(1+δ), 1+δ]: symmetric optimism/pessimism.
		lo, hi := math.Log(1/(1+delta)), math.Log(1+delta)
		return math.Exp(lo + u*(hi-lo))
	}
}

// execCost returns the plan's true execution cost at the engine's hidden
// location, including any injected cost-model error.
func (e *Engine) execCost(p *plan.Plan) float64 {
	c := e.truthCost(p)
	if e.CostError != nil {
		c *= e.CostError(p)
	}
	return c
}

// truthCost returns the model's cost of the plan at the truth, evaluated
// on the plan's first execution and memoized for the engine's run. The
// memo holds the model's cost alone, so the injected error above still
// applies to every execution.
func (e *Engine) truthCost(p *plan.Plan) float64 {
	if c, ok := e.evals[p]; ok {
		return c
	}
	c := e.Model.Eval(p, e.Truth)
	if e.evals == nil {
		e.evals = make(map[*plan.Plan]float64)
	}
	e.evals[p] = c
	return c
}

// errorFactor returns the injected factor for the plan (1 when disabled).
func (e *Engine) errorFactor(p *plan.Plan) float64 {
	if e.CostError == nil {
		return 1
	}
	return e.CostError(p)
}
