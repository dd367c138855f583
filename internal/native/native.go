// Package native models the traditional optimize-then-execute baseline the
// paper contrasts against (Sec 2.3): the optimizer estimates the epp
// selectivities from statistics (the AVI-style defaults of the cost model),
// picks the plan optimal at that estimated location q_e, and runs it to
// completion at the actual location q_a regardless of how wrong the
// estimate was. Its sub-optimality SubOpt(q_e,q_a) = Cost(P_qe,q_a) /
// Cost(P_qa,q_a) (Eq. 1) is unbounded — the motivation for robust query
// processing.
package native

import (
	"repro/internal/ess"
	"repro/internal/optimizer"
	"repro/internal/plan"
)

// MSO returns the native optimizer's maximum sub-optimality per Eq. (2):
// the maximum of SubOpt(q_e, q_a) over all estimate/actual grid-cell pairs
// ("assuming that estimation errors can range over the entire selectivity
// space", footnote 1), plus the plan at the exact statistics-derived
// estimate (which may fall between grid points and be the worst trap of
// all). stride subsamples the estimate axis for large grids
// (1 = exhaustive).
func MSO(s *ess.Space, stride int) float64 {
	if stride < 1 {
		stride = 1
	}
	g := s.Grid
	worst := 0.0
	eval := func(p *plan.Plan) {
		for qa := 0; qa < g.Size(); qa += stride {
			so := s.Model.Eval(p, g.Location(qa)) / s.CostAt(qa)
			if so > worst {
				worst = so
			}
		}
	}
	for qe := 0; qe < g.Size(); qe += stride {
		eval(s.PlanAt(qe))
	}
	if o, err := optimizer.New(s.Model); err == nil {
		p, _ := o.Optimize(s.Model.EstimateLocation())
		eval(p)
	}
	return worst
}
