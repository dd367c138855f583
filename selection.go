// The selection strategy family: non-discovery robust plan selection.
// Where the paper's discovery algorithms (PlanBouquet/SpillBound/
// AlignedBound) learn selectivities at run time, these strategies commit to
// ONE robust plan up front — scored over an error profile around the
// optimizer's estimate — and execute it under a budget-doubling ladder so
// the charged ledger stays bounded even when the choice was wrong:
//
//   - penaltyaware: PARQO-style robust selection (PAPERS.md). Each POSP
//     plan is scored by a blend of expected and worst-case penalty
//     (cost minus the oracle optimum) over a sampled error profile; the
//     minimizer wins.
//   - probabilistic: approximate-probabilistic plan evaluation à la
//     Kamali et al. — pick the plan minimizing expected cost under a
//     sampled selectivity distribution (no oracle calls, no penalty).
//   - minmaxregret: minmax-regret selection ordering (Alyoubi/Helmer/
//     Wood) — scenarios are the corners of a multiplicative uncertainty
//     box around the estimate plus the estimate itself; the plan with the
//     smallest maximum regret wins.
//
// None of the three carries an MSO guarantee (Session.Guarantee reports
// +Inf); the sweeps and the robustness atlas exist to measure how far
// profile-driven selection actually lands from the discovery bounds.

package repro

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/runstate"
)

const (
	// selectionSamples is the error-profile sample count: enough to cover
	// a multi-decade q-error ball, small enough that plan scoring stays a
	// one-off session cost (POSP size × samples model evaluations).
	selectionSamples = 64
	// selectionSigmaDecades is the error profile's log10-normal standard
	// deviation: 1 decade matches the paper's observation that production
	// estimates routinely err by orders of magnitude.
	selectionSigmaDecades = 1.0
	// penaltyAlpha blends worst-case into expected penalty for the
	// penalty-aware score: score = (1-α)·E[penalty] + α·max(penalty).
	penaltyAlpha = 0.5
	// regretFactor spans minmax-regret's uncertainty box: each dimension
	// ranges over [est/F, est·F] (two decades total), clamped to the grid.
	regretFactor = 100.0
	// maxLadderSteps caps the execution ladder's budget doublings — 64
	// doublings exceed any finite cost surface; hitting the cap means the
	// cost model returned a non-finite execution cost.
	maxLadderSteps = 64
)

// selectionChoice is one strategy's committed decision for a session: the
// chosen POSP plan, its score, and the ladder's starting budget (the plan's
// predicted cost at the estimate, so a correct estimate completes in one
// step at its native cost).
type selectionChoice struct {
	planID     int
	score      float64
	initBudget float64
}

// selectionFor returns the memoized choice for the named strategy,
// computing it on first use. Strategy values are shared across sessions,
// so the memo lives on the Session (guarded by selMu); the chooser runs at
// most once per (session, strategy).
func (s *Session) selectionFor(name string, choose func(*Session) selectionChoice) selectionChoice {
	s.selMu.Lock()
	defer s.selMu.Unlock()
	if ch, ok := s.selections[name]; ok {
		return ch
	}
	ch := choose(s)
	if s.selections == nil {
		s.selections = make(map[string]selectionChoice)
	}
	s.selections[name] = ch
	return ch
}

// errorProfile draws n selectivity locations around the estimate: each
// dimension is perturbed by a log10-normal factor of sigma decades, clamped
// to the grid's selectivity range. The profile is deterministic in the
// seed, so plan choices — and therefore runs, sweeps and checkpoints — are
// reproducible.
func errorProfile(s *Session, seed int64, n int, sigma float64) []Location {
	est := s.EstimateLocation()
	g := s.space.Grid
	rng := rand.New(rand.NewSource(seed))
	profile := make([]Location, n)
	for i := range profile {
		q := make(Location, len(est))
		for d := range q {
			q[d] = clampSel(est[d]*math.Pow(10, sigma*rng.NormFloat64()), g.Points[d][0])
		}
		profile[i] = q
	}
	return profile
}

// clampSel clamps a perturbed selectivity into the grid's [lo, 1] range.
func clampSel(v, lo float64) float64 {
	if v < lo {
		return lo
	}
	if v > 1 {
		return 1
	}
	return v
}

// selectionSeed derives a strategy's deterministic sampling seed from the
// session's sweep seed, so varying Options.SweepSeed re-rolls the profiles
// while distinct strategies never share a sample stream.
func selectionSeed(s *Session, salt int64) int64 {
	return s.opts.sweepSeed()*1000003 + salt
}

// scorePlans picks the POSP plan minimizing score (ties break to the lower
// plan ID, keeping the choice order-deterministic).
func scorePlans(s *Session, score func(planID int) float64) selectionChoice {
	best, bestScore := 0, math.Inf(1)
	for id := range s.space.Plans() {
		if sc := score(id); sc < bestScore {
			best, bestScore = id, sc
		}
	}
	return selectionChoice{
		planID:     best,
		score:      bestScore,
		initBudget: s.model.Eval(s.space.Plans()[best], s.EstimateLocation()),
	}
}

// choosePenaltyAware scores each POSP plan by blended expected/worst-case
// penalty — Cost(p, q) − Cost(opt(q), q) — over the error profile.
func choosePenaltyAware(s *Session) selectionChoice {
	profile := errorProfile(s, selectionSeed(s, 1), selectionSamples, selectionSigmaDecades)
	opts := make([]float64, len(profile))
	for i, q := range profile {
		_, opts[i] = s.opt.Optimize(q)
	}
	return scorePlans(s, func(id int) float64 {
		p := s.space.Plans()[id]
		var exp, worst float64
		for i, q := range profile {
			pen := s.model.Eval(p, q) - opts[i]
			exp += pen
			if pen > worst {
				worst = pen
			}
		}
		exp /= float64(len(profile))
		return (1-penaltyAlpha)*exp + penaltyAlpha*worst
	})
}

// chooseProbabilistic scores each POSP plan by expected cost under the
// sampled selectivity distribution — no oracle, just the cost model.
func chooseProbabilistic(s *Session) selectionChoice {
	profile := errorProfile(s, selectionSeed(s, 2), selectionSamples, selectionSigmaDecades)
	return scorePlans(s, func(id int) float64 {
		p := s.space.Plans()[id]
		var exp float64
		for _, q := range profile {
			exp += s.model.Eval(p, q)
		}
		return exp / float64(len(profile))
	})
}

// regretScenarios enumerates minmax-regret's scenario set: the estimate
// plus every corner of the multiplicative uncertainty box [est/F, est·F]
// per dimension, clamped to the grid range.
func regretScenarios(s *Session) []Location {
	est := s.EstimateLocation()
	g := s.space.Grid
	scenarios := []Location{est.Clone()}
	for corner := 0; corner < 1<<len(est); corner++ {
		q := make(Location, len(est))
		for d := range q {
			f := 1 / regretFactor
			if corner&(1<<d) != 0 {
				f = regretFactor
			}
			q[d] = clampSel(est[d]*f, g.Points[d][0])
		}
		scenarios = append(scenarios, q)
	}
	return scenarios
}

// chooseMinmaxRegret picks the plan minimizing the maximum regret —
// Cost(p, sc) − Cost(opt(sc), sc) — across the scenario set.
func chooseMinmaxRegret(s *Session) selectionChoice {
	scenarios := regretScenarios(s)
	opts := make([]float64, len(scenarios))
	for i, sc := range scenarios {
		_, opts[i] = s.opt.Optimize(sc)
	}
	return scorePlans(s, func(id int) float64 {
		p := s.space.Plans()[id]
		var worst float64
		for i, sc := range scenarios {
			if regret := s.model.Eval(p, sc) - opts[i]; regret > worst {
				worst = regret
			}
		}
		return worst
	})
}

// runLadder executes a committed plan choice under the budget-doubling
// ladder through the resilient executor stack: attempt k runs the plan with
// budget b0·2^k, charging min(cost, budget) per the engine contract, until
// an attempt completes. The ladder's monotone state is the attempt index
// alone, checkpointed like a contour boundary, so selection runs are
// durable and crash-resumable (the choice itself is deterministic and is
// simply recomputed on resume).
func runLadder(ctx context.Context, r *strategyRun, name string, choose func(*Session) selectionChoice) (float64, error) {
	ch := r.sess.selectionFor(name, choose)
	var total float64
	start := 0
	if r.resume != nil {
		start = r.resume.Contour
	}
	budget := ch.initBudget * math.Pow(2, float64(start))
	for step := start; step < maxLadderSteps; step++ {
		if err := runstate.Checkpoint(ctx, step); err != nil {
			return total, err
		}
		spent, completed, err := r.execute(ctx, step+1, ch.planID, budget)
		if err != nil {
			return total, err
		}
		total += spent
		if completed {
			return total, nil
		}
		budget *= 2
	}
	return total, fmt.Errorf("repro: %s budget ladder exceeded %d doublings (non-finite execution cost?)", name, maxLadderSteps)
}

// selection is the strategyTable entry of one member of the selection
// family; the members differ only in name, documented knobs and chooser.
func selection(name string, params map[string]string, choose func(*Session) selectionChoice) Strategy {
	return Strategy{
		info: StrategyInfo{
			Name: name, Kind: "selection", Guarantee: "none",
			Resumable: true, Params: params,
		},
		guarantee: noGuarantee,
		run: func(ctx context.Context, r *strategyRun) (float64, error) {
			return runLadder(ctx, r, name, choose)
		},
	}
}
