// Package reopt implements a POP-style progressive reoptimization baseline
// (Markl et al., SIGMOD 2004), the class of plan-switching heuristics the
// paper contrasts with in Sec 8: start from the optimizer's estimate,
// monitor observed cardinalities at checkpoints during execution, and
// reoptimize with the learned selectivities when the running plan stops
// looking optimal. Unlike PlanBouquet/SpillBound, there are no calibrated
// cost budgets: the engine only learns an error-prone predicate's
// selectivity *after* paying for the subtree that produces it — under the
// plan chosen by the (possibly wildly wrong) current estimate. The paper's
// critique is structural: "POP and Rio are based on heuristics and do not
// provide any performance bounds"; this implementation exhibits exactly
// that unboundedness while usually behaving reasonably.
//
// Simplifications (documented per DESIGN.md's substitution policy):
// checkpoints sit at the error-prone join operators (where POP places CHECK
// operators above significant cardinality errors); the validity test is
// "does the optimizer still pick this plan given everything learnt";
// restarted attempts do not reuse intermediate results (pessimistic for
// POP on reuse, optimistic in that restart is always possible).
package reopt

import (
	"repro/internal/cost"
	"repro/internal/optimizer"
	"repro/internal/plan"
)

// Attempt records one plan execution attempt.
type Attempt struct {
	// PlanFP is the attempt's plan fingerprint.
	PlanFP string
	// Assumed is the selectivity location the plan was optimized for
	// (learned dimensions carry their true values, the rest estimates).
	Assumed cost.Location
	// Spent is the execution cost charged for the attempt.
	Spent float64
	// Completed reports whether this attempt ran the query to completion.
	Completed bool
	// TriggeredBy is the ESS dimension whose observation triggered
	// reoptimization (-1 when completed).
	TriggeredBy int
}

// Outcome is a full progressive-reoptimization run.
type Outcome struct {
	// Attempts lists the plan attempts in order.
	Attempts []Attempt
	// TotalCost is the summed charged cost.
	TotalCost float64
	// Completed reports overall completion (always true: the final attempt
	// runs under fully learned selectivities).
	Completed bool
}

// Runner executes the POP-style baseline for one query.
type Runner struct {
	// Opt is the optimizer (the reoptimization oracle).
	Opt *optimizer.Optimizer
}

// NewRunner returns a Runner over the given optimizer.
func NewRunner(o *optimizer.Optimizer) *Runner { return &Runner{Opt: o} }

// Run processes the query whose true epp selectivities are truth, starting
// from the model's statistics estimate.
func (r *Runner) Run(truth cost.Location) Outcome {
	m := r.Opt.Model()
	q := m.Query
	d := q.D()
	assumed := m.EstimateLocation()
	learnt := 0 // the learnt dimensions, one bit each
	var out Outcome

	for attempt := 0; attempt <= d; attempt++ {
		p, _ := r.Opt.Optimize(assumed)
		a := Attempt{PlanFP: p.Fingerprint(), Assumed: assumed.Clone(), TriggeredBy: -1}

		// Walk the plan's epp observation points in pipeline order (its
		// spill order, each next point the spill target once the ones before
		// it are learnt); each unlearned epp is observed only after paying
		// for the subtree that produces it (at the true selectivities).
		reoptimized := false
		for en, dim, ok := p.SpillTarget(q.EPPs, learnt); ok; en, dim, ok = p.SpillTarget(q.EPPs, learnt) {
			sub := plan.New(en.Node)
			a.Spent = maxf(a.Spent, m.Eval(sub, truth))
			learnt |= 1 << dim
			assumed[dim] = truth[dim]
			// Validity check: would the optimizer still run this plan?
			np, _ := r.Opt.Optimize(assumed)
			if np.Fingerprint() != p.Fingerprint() {
				a.TriggeredBy = dim
				reoptimized = true
				break
			}
		}
		if !reoptimized {
			// No checkpoint fired: the attempt runs to completion.
			a.Spent = m.Eval(p, truth)
			a.Completed = true
			out.Attempts = append(out.Attempts, a)
			out.TotalCost += a.Spent
			out.Completed = true
			return out
		}
		out.Attempts = append(out.Attempts, a)
		out.TotalCost += a.Spent
	}
	// Defensive: with all D epps learnable this loop always completes
	// within d+1 attempts; guard anyway.
	p, _ := r.Opt.Optimize(truth)
	c := m.Eval(p, truth)
	out.Attempts = append(out.Attempts, Attempt{
		PlanFP: p.Fingerprint(), Assumed: truth.Clone(), Spent: c, Completed: true, TriggeredBy: -1,
	})
	out.TotalCost += c
	out.Completed = true
	return out
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
