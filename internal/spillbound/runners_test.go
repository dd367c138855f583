package spillbound_test

import (
	"context"
	"testing"

	"repro/internal/aligned"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/ess"
	"repro/internal/spillbound"
	"repro/internal/telemetry"
)

// runners are the two planners of the shared discovery driver, each run
// under a recorder. Tests over this table pin behaviour the driver owns for
// both algorithms.
var runners = []struct {
	name string
	run  func(s *ess.Space, truth cost.Location) (spillbound.Outcome, []telemetry.Event)
}{
	{"spillbound", func(s *ess.Space, truth cost.Location) (spillbound.Outcome, []telemetry.Event) {
		return spillbound.Record(func(ctx context.Context) (spillbound.Outcome, error) {
			return spillbound.NewRunner(s).RunContext(ctx, engine.New(s.Model, truth))
		})
	}},
	{"alignedbound", func(s *ess.Space, truth cost.Location) (spillbound.Outcome, []telemetry.Event) {
		return spillbound.Record(func(ctx context.Context) (spillbound.Outcome, error) {
			return aligned.NewRunner(s).RunContext(ctx, engine.New(s.Model, truth))
		})
	}},
}

// spills returns the run's SpillExec events.
func spills(events []telemetry.Event) []telemetry.Event {
	var out []telemetry.Event
	for _, ev := range events {
		if ev.Kind == telemetry.SpillExec {
			out = append(out, ev)
		}
	}
	return out
}

// TestRepeatLabels checks the Lemma 3.2 repeat counter: a SpillExec event
// is marked Repeat exactly when its dimension was already spilled earlier
// on the same contour. Both grids hold runs of both algorithms that
// re-spill a dimension, so the rule is exercised.
func TestRepeatLabels(t *testing.T) {
	spaces := []struct {
		name string
		s    *ess.Space
	}{
		{"3D_res8", spillbound.Build3D(t, 8)},
		{"4D_res5", spillbound.Build4D(t, 5)},
	}
	for _, r := range runners {
		for _, sp := range spaces {
			t.Run(r.name+"/"+sp.name, func(t *testing.T) {
				g := sp.s.Grid
				repeats := 0
				for ci := 0; ci < g.Size(); ci++ {
					_, events := r.run(sp.s, g.Location(ci))
					seen := map[[2]int]bool{}
					for _, x := range spills(events) {
						key := [2]int{x.Contour, x.Dim}
						if x.Repeat != seen[key] {
							t.Fatalf("cell %d: Repeat=%v on %+v, want %v\n%s", ci, x.Repeat, x, seen[key], telemetry.RenderTrace(events))
						}
						seen[key] = true
						if x.Repeat {
							repeats++
						}
					}
				}
				if repeats == 0 {
					t.Error("no repeat execution over the whole grid; the rule is not exercised")
				}
				t.Logf("%d repeat executions over %d truths", repeats, g.Size())
			})
		}
	}
}

// TestLemma44RepeatBound4D checks Lemma 4.4's global repeat-execution bound
// D(D-1)/2 on a 4D instance (bound 6) over the whole grid, and at most D
// fresh spills per contour.
func TestLemma44RepeatBound4D(t *testing.T) {
	s := spillbound.Build4D(t, 5)
	g := s.Grid
	bound := 4 * 3 / 2
	for _, r := range runners {
		t.Run(r.name, func(t *testing.T) {
			for ci := 0; ci < g.Size(); ci += 2 {
				_, events := r.run(s, g.Location(ci))
				repeats := 0
				perContourFresh := map[int]int{}
				for _, x := range spills(events) {
					if x.Repeat {
						repeats++
					} else {
						perContourFresh[x.Contour]++
					}
				}
				if repeats > bound {
					t.Fatalf("cell %d: %d repeats exceed D(D-1)/2=%d\n%s", ci, repeats, bound, telemetry.RenderTrace(events))
				}
				for contour, n := range perContourFresh {
					if n > 4 {
						t.Fatalf("cell %d contour %d: %d fresh spills (> D)", ci, contour, n)
					}
				}
			}
		})
	}
}

// TestMonotoneDiscovery verifies that the learned running location only
// moves toward the truth: every spill's Learned value is a valid lower
// bound, completed spills learn the exact coordinate, and the HalfSpacePrune
// events record exactly what the completed spills learnt.
func TestMonotoneDiscovery(t *testing.T) {
	s := spillbound.Build2D(t, 10)
	truth := cost.Location{0.01, 0.2}
	for _, r := range runners {
		t.Run(r.name, func(t *testing.T) {
			_, events := r.run(s, truth)
			pruned := map[int]float64{}
			for _, ev := range events {
				if ev.Kind == telemetry.HalfSpacePrune {
					if _, dup := pruned[ev.Dim]; dup {
						t.Errorf("dim %d pruned twice", ev.Dim)
					}
					pruned[ev.Dim] = ev.Learned
				}
			}
			qrun := cost.Location{0, 0}
			completed := 0
			for _, x := range spills(events) {
				if x.Learned < qrun[x.Dim]-1e-12 {
					t.Errorf("learning went backwards on dim %d: %g after %g", x.Dim, x.Learned, qrun[x.Dim])
				}
				if x.Learned > truth[x.Dim]+1e-12 {
					t.Errorf("dim %d learned %g beyond truth %g", x.Dim, x.Learned, truth[x.Dim])
				}
				if x.Completed {
					completed++
					if x.Learned != truth[x.Dim] {
						t.Errorf("completed spill learned %g, want exact %g", x.Learned, truth[x.Dim])
					}
					if got, ok := pruned[x.Dim]; !ok || got != x.Learned {
						t.Errorf("pruned[%d] = %g (present %v), want %g", x.Dim, got, ok, x.Learned)
					}
				}
				if x.Learned > qrun[x.Dim] {
					qrun[x.Dim] = x.Learned
				}
			}
			if len(pruned) != completed {
				t.Errorf("%d dimensions pruned, %d spills completed", len(pruned), completed)
			}
			for d, sel := range pruned {
				if sel != truth[d] {
					t.Errorf("pruned[%d] = %g, want %g", d, sel, truth[d])
				}
			}
		})
	}
}
