package spillbound_test

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/aligned"
	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/ess"
	"repro/internal/metrics"
	"repro/internal/runstate"
	"repro/internal/spillbound"
	"repro/internal/workload"
)

// memoRunners run SpillBound and AlignedBound to completion, optionally
// resumed from a checkpointed discovery state.
var memoRunners = []struct {
	name string
	run  func(s *ess.Space, truth cost.Location, resume *runstate.Discovery) spillbound.Outcome
}{
	{"spillbound", func(s *ess.Space, truth cost.Location, resume *runstate.Discovery) spillbound.Outcome {
		return (&spillbound.Runner{Space: s, Ratio: ess.CostDoublingRatio, Resume: resume}).Run(engine.New(s.Model, truth))
	}},
	{"alignedbound", func(s *ess.Space, truth cost.Location, resume *runstate.Discovery) spillbound.Outcome {
		return (&aligned.Runner{Space: s, Ratio: ess.CostDoublingRatio, Resume: resume}).Run(engine.New(s.Model, truth))
	}},
}

// TestMemoHitEqualsColdRun pins the contract of the Space's contour memo: a
// run on a Space whose memo a 2-worker sweep of both planners has warmed
// equals, execution for execution, a run on a freshly built Space over the
// same surface, whose memo is empty. Truths are grid cells and seeded
// log-uniform off-grid locations; one run per query and planner resumes
// from a mid-run discovery state.
func TestMemoHitEqualsColdRun(t *testing.T) {
	cat := catalog.TPCDS(100)
	for _, d := range []int{3, 4} {
		sp := workload.Q91(d)
		t.Run(sp.Name, func(t *testing.T) {
			q, err := sp.Build(cat)
			if err != nil {
				t.Fatal(err)
			}
			m, err := cost.NewModel(q, cost.PostgresLike())
			if err != nil {
				t.Fatal(err)
			}
			warm, err := ess.BuildParallelContext(context.Background(), m, ess.NewGrid(q.D(), sp.GridRes, sp.GridLo), 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			g := warm.Grid
			fresh := func() *ess.Space {
				return ess.FromSurface(m, g, warm.Plans(), warm.CostAt, warm.PlanIDAt)
			}
			for _, r := range memoRunners {
				_, err := metrics.SweepContext(context.Background(), warm, func(truth cost.Location) float64 {
					return r.run(warm, truth, nil).TotalCost
				}, metrics.SweepOptions{MaxLocations: 256, Seed: 1, Workers: 2})
				if err != nil {
					t.Fatal(err)
				}
			}

			rng := rand.New(rand.NewSource(int64(d)))
			var truths []cost.Location
			for i := 0; i < 64; i++ {
				truths = append(truths, g.Location(rng.Intn(g.Size())))
			}
			logLo := math.Log(sp.GridLo)
			for i := 0; i < 64; i++ {
				loc := make(cost.Location, g.D)
				for j := range loc {
					loc[j] = math.Exp(logLo * rng.Float64())
				}
				truths = append(truths, loc)
			}

			for _, r := range memoRunners {
				resumed := false
				for _, truth := range truths {
					cold := r.run(fresh(), truth, nil)
					sameOutcome(t, r.name+" run", truth, r.run(warm, truth, nil), cold)
					if resumed {
						continue
					}
					if resume, ok := midRun(cold); ok {
						sameOutcome(t, r.name+" resume", truth, r.run(warm, truth, resume), r.run(fresh(), truth, resume))
						resumed = true
					}
				}
				if !resumed {
					t.Errorf("%s: no run had a mid-run discovery state to resume from", r.name)
				}
			}
		})
	}
}

// midRun returns the discovery state a checkpoint takes before an
// outcome's middle spill, when that spill follows a completed one: its
// contour and the selectivities learnt before it.
func midRun(out spillbound.Outcome) (*runstate.Discovery, bool) {
	k := len(out.Executions) / 2
	if out.Executions[k].Dim < 0 {
		return nil, false
	}
	learned := map[int]float64{}
	for _, x := range out.Executions[:k] {
		if x.Dim >= 0 && x.Completed {
			learned[x.Dim] = x.Learned
		}
	}
	if len(learned) == 0 {
		return nil, false
	}
	return &runstate.Discovery{Contour: out.Executions[k].Contour, Learned: learned}, true
}

func sameOutcome(t *testing.T, what string, truth cost.Location, warm, cold spillbound.Outcome) {
	t.Helper()
	if !reflect.DeepEqual(warm.Executions, cold.Executions) || warm.TotalCost != cold.TotalCost ||
		warm.MaxPartitionPenalty != cold.MaxPartitionPenalty {
		t.Errorf("%s at %v: memo-warm run differs from cold run\nwarm: cost %v π* %v\n%s\ncold: cost %v π* %v\n%s",
			what, truth, warm.TotalCost, warm.MaxPartitionPenalty, warm.Trace(),
			cold.TotalCost, cold.MaxPartitionPenalty, cold.Trace())
	}
}
