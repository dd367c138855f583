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
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// memoRunners run SpillBound and AlignedBound to completion under a
// recorder, optionally resumed from a checkpointed discovery state.
var memoRunners = []struct {
	name string
	run  func(s *ess.Space, truth cost.Location, resume *runstate.Discovery) (spillbound.Outcome, []telemetry.Event)
}{
	{"spillbound", func(s *ess.Space, truth cost.Location, resume *runstate.Discovery) (spillbound.Outcome, []telemetry.Event) {
		return spillbound.Record(func(ctx context.Context) (spillbound.Outcome, error) {
			return (&spillbound.Runner{Space: s, Ratio: ess.CostDoublingRatio, Resume: resume}).RunContext(ctx, engine.New(s.Model, truth))
		})
	}},
	{"alignedbound", func(s *ess.Space, truth cost.Location, resume *runstate.Discovery) (spillbound.Outcome, []telemetry.Event) {
		return spillbound.Record(func(ctx context.Context) (spillbound.Outcome, error) {
			return (&aligned.Runner{Space: s, Ratio: ess.CostDoublingRatio, Resume: resume}).RunContext(ctx, engine.New(s.Model, truth))
		})
	}},
}

// TestMemoHitEqualsColdRun pins the contract of the Space's contour memo: a
// run on a Space whose memo a 2-worker sweep of both planners has warmed
// records, event for event, the same stream as a run on a freshly built
// Space over the same surface, whose memo is empty. Truths are grid cells and seeded
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
					out, _ := r.run(warm, truth, nil)
					return out.TotalCost
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
					cold, coldEvents := r.run(fresh(), truth, nil)
					warmOut, warmEvents := r.run(warm, truth, nil)
					sameOutcome(t, r.name+" run", truth, warmOut, cold, warmEvents, coldEvents)
					if resumed {
						continue
					}
					if resume, ok := midRun(coldEvents); ok {
						warmOut, warmEvents := r.run(warm, truth, resume)
						coldOut, coldEvents := r.run(fresh(), truth, resume)
						sameOutcome(t, r.name+" resume", truth, warmOut, coldOut, warmEvents, coldEvents)
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

// midRun returns the discovery state a checkpoint takes before a run's
// middle execution, when that is a spill following a completed one: its
// contour (0-based, as runstate keeps it) and the selectivities learnt
// before it.
func midRun(events []telemetry.Event) (*runstate.Discovery, bool) {
	execs := spillbound.Executions(events)
	k := len(execs) / 2
	if execs[k].Dim < 0 {
		return nil, false
	}
	learned := map[int]float64{}
	for _, x := range execs[:k] {
		if x.Dim >= 0 && x.Completed {
			learned[x.Dim] = x.Learned
		}
	}
	if len(learned) == 0 {
		return nil, false
	}
	return &runstate.Discovery{Contour: execs[k].Contour - 1, Learned: learned}, true
}

func sameOutcome(t *testing.T, what string, truth cost.Location, warm, cold spillbound.Outcome, warmEvents, coldEvents []telemetry.Event) {
	t.Helper()
	if !reflect.DeepEqual(warmEvents, coldEvents) || warm != cold {
		t.Errorf("%s at %v: memo-warm run differs from cold run\nwarm: %+v\n%s\ncold: %+v\n%s",
			what, truth, warm, telemetry.RenderTrace(warmEvents), cold, telemetry.RenderTrace(coldEvents))
	}
}
