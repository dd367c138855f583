package engine_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/aligned"
	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/ess"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/spillbound"
	"repro/internal/workload"
)

// referenceBound is the monitoring bound by a full Model.Eval of the
// spilled subtree at every probe of the bisection: the largest selectivity
// s <= truth[dim] with Cost(sub, truth[dim:=s]) <= budget.
func referenceBound(m *cost.Model, truth cost.Location, sub *plan.Plan, dim int, budget float64) float64 {
	probe := truth.Clone()
	eval := func(s float64) float64 {
		probe[dim] = s
		return m.Eval(sub, probe)
	}
	lo, hi := 0.0, truth[dim]
	if eval(lo) > budget {
		return 0
	}
	for i := 0; i < 64 && hi-lo > 1e-16; i++ {
		mid := (lo + hi) / 2
		if eval(mid) <= budget {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// boundChecker is an engine that recomputes every budget-expired spill's
// learned value with referenceBound and counts the spills checked and the
// mismatches.
type boundChecker struct {
	*engine.Engine
	checked, wrong *int
}

func (c boundChecker) ExecuteSpillCtx(ctx context.Context, p *plan.Plan, dim int, budget float64) (engine.SpillResult, bool, error) {
	res, ok, err := c.Engine.ExecuteSpillCtx(ctx, p, dim, budget)
	if ok && err == nil && !res.Completed {
		sub := p.Subtree(c.Model.Query.EPPs[dim])
		want := referenceBound(c.Model, c.Truth, sub, dim, budget)
		*c.checked++
		if math.Float64bits(res.Learned) != math.Float64bits(want) {
			*c.wrong++
		}
	}
	return res, ok, err
}

// TestMonitorBoundMatchesFullEval runs SpillBound and AlignedBound over a
// seeded 64-location grid sample of every suite query and requires the
// learned value of every budget-expired spill to equal, bit for bit, the
// bisection that re-costs the whole spilled subtree at each probe.
func TestMonitorBoundMatchesFullEval(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every suite ESS; skipped in -short")
	}
	runners := map[string]func(*ess.Space, engine.ContextExecutor) error{
		"spillbound": func(s *ess.Space, e engine.ContextExecutor) error {
			_, err := spillbound.NewRunner(s).RunContext(context.Background(), e)
			return err
		},
		"alignedbound": func(s *ess.Space, e engine.ContextExecutor) error {
			_, err := aligned.NewRunner(s).RunContext(context.Background(), e)
			return err
		},
	}
	total := 0
	for _, sp := range workload.All() {
		cat := catalog.TPCDS(100)
		switch sp.Catalog {
		case "imdb":
			cat = catalog.IMDB()
		case "tpch":
			cat = catalog.TPCH(1)
		}
		q, err := sp.Build(cat)
		if err != nil {
			t.Fatal(err)
		}
		m := cost.MustNewModel(q, cost.PostgresLike())
		s, err := ess.BuildParallelContext(context.Background(), m, ess.NewGrid(q.D(), sp.GridRes, sp.GridLo), 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for name, run := range runners {
			checked, wrong := 0, 0
			_, err := metrics.SweepContext(context.Background(), s, func(truth cost.Location) float64 {
				if err := run(s, boundChecker{engine.New(m, truth), &checked, &wrong}); err != nil {
					t.Errorf("%s %s at %v: %v", sp.Name, name, truth, err)
				}
				return 1
			}, metrics.SweepOptions{MaxLocations: 64, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if wrong > 0 {
				t.Errorf("%s %s: %d of %d budget-expired spills learned another bound than the full-Eval bisection", sp.Name, name, wrong, checked)
			}
			total += checked
		}
	}
	if total == 0 {
		t.Fatal("no budget-expired spill was checked")
	}
	t.Logf("%d budget-expired spills checked", total)
}
