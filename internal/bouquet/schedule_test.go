package bouquet

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/ess"
	"repro/internal/telemetry"
)

// referenceSchedule is the per-contour derivation the schedule replaced:
// each contour's cells from ContourCells, then distinctPlans over them.
func referenceSchedule(s *ess.Space, a Assignment, costs []float64) [][]int {
	out := make([][]int, len(costs))
	for i, cc := range costs {
		out[i] = distinctPlans(a, s.Full().ContourCells(cc))
	}
	return out
}

func requireScheduleMatches(t *testing.T, name string, got, want [][]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d contours, reference %d", name, len(got), len(want))
	}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("%s: contour %d plans %v, reference %v", name, i+1, got[i], want[i])
		}
	}
}

// TestScheduleMatchesContourCellsOnSuite holds the one-pass contour plan
// lists to the order the run loop used to derive from each contour's
// cells, exactly, on suite spaces of three to six dimensions at contour
// ratios 2 and 1.5: for the identity assignment and for diagrams reduced
// at λ 0, 0.2 and 1.
func TestScheduleMatchesContourCellsOnSuite(t *testing.T) {
	for _, name := range []string{"3D_Q15", "4D_Q91", "5D_Q84", "6D_Q18"} {
		s := benchmarkSpace(t, name)
		diags := []*Diagram{Reduce(s, 0), Reduce(s, 0.2), Reduce(s, 1)}
		for _, r := range []float64{2, 1.5} {
			costs := s.ContourCosts(r)
			requireScheduleMatches(t, fmt.Sprintf("%s r=%g identity", name, r),
				contourPlans(s, s, costs), referenceSchedule(s, s, costs))
			for _, d := range diags {
				requireScheduleMatches(t, fmt.Sprintf("%s r=%g λ=%g", name, r, d.Lambda),
					d.Schedule(costs), referenceSchedule(s, d, costs))
			}
		}
	}
}

// TestScheduleIsPerDiagramAndBudgetList asks for schedules of two
// diagrams at different λ over one Space, each under two budget lists:
// every ask matches its own diagram and budgets, a repeated ask returns
// the memoized lists, and neither diagram's asks disturb the other's.
func TestScheduleIsPerDiagramAndBudgetList(t *testing.T) {
	s := benchmarkSpace(t, "4D_Q91")
	exact, coarse := Reduce(s, 0), Reduce(s, 1)
	costs2, costs15 := s.ContourCosts(2), s.ContourCosts(1.5)
	first := exact.Schedule(costs2)
	for round := 0; round < 2; round++ {
		for _, d := range []*Diagram{coarse, exact} {
			for _, costs := range [][]float64{costs15, costs2} {
				requireScheduleMatches(t, fmt.Sprintf("round %d λ=%g %d contours", round, d.Lambda, len(costs)),
					d.Schedule(costs), referenceSchedule(s, d, costs))
			}
		}
	}
	if again := exact.Schedule(slices.Clone(costs2)); &again[0] != &first[0] {
		t.Error("a repeated ask with equal budgets recomputed the schedule")
	}
	differ := false
	for i, ids := range exact.Schedule(costs2) {
		differ = differ || !slices.Equal(ids, coarse.Schedule(costs2)[i])
	}
	if !differ {
		t.Fatal("λ=0 and λ=1 diagrams schedule the same plans; the test cannot tell them apart")
	}
}

// TestScheduleConcurrentFirstAsks has 16 goroutines make the first asks of
// a fresh diagram at once, under two budget lists (run it with -race):
// all get the reference lists, and all asks under one list share them.
func TestScheduleConcurrentFirstAsks(t *testing.T) {
	s := benchmarkSpace(t, "3D_Q15")
	d := Reduce(s, 0.2)
	budgets := [][]float64{s.ContourCosts(2), s.ContourCosts(1.5)}
	got := make([][][]int, 16)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = d.Schedule(budgets[g%2])
		}()
	}
	wg.Wait()
	for g, sched := range got {
		requireScheduleMatches(t, fmt.Sprintf("goroutine %d", g), sched, referenceSchedule(s, d, budgets[g%2]))
		if &sched[0] != &got[g%2][0] {
			t.Errorf("goroutine %d holds its own copy of the schedule", g)
		}
	}
}

// TestRunContextMatchesCellDerivedLoop runs PlanBouquet from the schedule
// (RunContext) and from lists derived from each contour's cells
// (runCellDerived) at every grid location and off the grid, from the first
// and a later contour: the event streams must be identical.
func TestRunContextMatchesCellDerivedLoop(t *testing.T) {
	s := buildSpace(t, 10)
	d := Reduce(s, 0.2)
	costs := s.ContourCosts(2)
	stream := func(run func(ctx context.Context) (Outcome, error)) (Outcome, []telemetry.Event) {
		rec := telemetry.NewRecorder()
		out, err := run(telemetry.With(context.Background(), rec))
		if err != nil {
			t.Fatal(err)
		}
		return out, rec.Events()
	}
	for ci := 0; ci < s.Grid.Size(); ci++ {
		truth := s.Grid.Location(ci)
		if ci%3 == 0 {
			truth[0] = math.Min(1, truth[0]*1.37)
		}
		for _, start := range []int{0, 2} {
			e := engine.New(s.Model, truth)
			got, gotEvents := stream(func(ctx context.Context) (Outcome, error) {
				return RunContext(ctx, d, e, costs, start)
			})
			e = engine.New(s.Model, truth)
			want, wantEvents := stream(func(ctx context.Context) (Outcome, error) {
				return runCellDerived(ctx, d, e, costs, start)
			})
			if got != want || !reflect.DeepEqual(gotEvents, wantEvents) {
				t.Fatalf("truth %v start %d: schedule run %+v (%d events), cell-derived run %+v (%d events)",
					truth, start, got, len(gotEvents), want, len(wantEvents))
			}
		}
	}
}
