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

// runners are the two planners of the shared discovery driver. Tests over
// this table pin behaviour the driver owns for both algorithms.
var runners = []struct {
	name string
	run  func(ctx context.Context, s *ess.Space, truth cost.Location) spillbound.Outcome
}{
	{"spillbound", func(ctx context.Context, s *ess.Space, truth cost.Location) spillbound.Outcome {
		out, _ := spillbound.NewRunner(s).RunContext(ctx, engine.New(s.Model, truth))
		return out
	}},
	{"alignedbound", func(ctx context.Context, s *ess.Space, truth cost.Location) spillbound.Outcome {
		out, _ := aligned.NewRunner(s).RunContext(ctx, engine.New(s.Model, truth))
		return out
	}},
}

// TestRepeatLabels checks the Lemma 3.2 repeat counter: a spill, and its
// SpillExec event, is marked Repeat exactly when its dimension was already
// spilled earlier on the same contour. Both grids hold runs of both
// algorithms that re-spill a dimension, so the rule is exercised.
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
					rec := telemetry.NewRecorder()
					out := r.run(telemetry.With(context.Background(), rec), sp.s, g.Location(ci))
					var events []telemetry.Event
					for _, ev := range rec.Events() {
						if ev.Kind == telemetry.SpillExec {
							events = append(events, ev)
						}
					}
					seen := map[[2]int]bool{}
					k := 0
					for _, x := range out.Executions {
						if x.Dim < 0 {
							continue
						}
						key := [2]int{x.Contour, x.Dim}
						if x.Repeat != seen[key] {
							t.Fatalf("cell %d: Repeat=%v on %v, want %v\n%s", ci, x.Repeat, x, seen[key], out.Trace())
						}
						if k >= len(events) || events[k].Repeat != x.Repeat {
							t.Fatalf("cell %d: spill %d's event does not carry Repeat=%v", ci, k, x.Repeat)
						}
						seen[key] = true
						k++
						if x.Repeat {
							repeats++
						}
					}
					if k != len(events) {
						t.Fatalf("cell %d: %d spills but %d SpillExec events", ci, k, len(events))
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
				out := r.run(context.Background(), s, g.Location(ci))
				repeats := 0
				perContourFresh := map[int]int{}
				for _, x := range out.Executions {
					if x.Dim < 0 {
						continue
					}
					if x.Repeat {
						repeats++
					} else {
						perContourFresh[x.Contour]++
					}
				}
				if repeats > bound {
					t.Fatalf("cell %d: %d repeats exceed D(D-1)/2=%d\n%s", ci, repeats, bound, out.Trace())
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
// bound, completed spills learn the exact coordinate, and LearnedSel
// reports exactly what the completed spills learnt.
func TestMonotoneDiscovery(t *testing.T) {
	s := spillbound.Build2D(t, 10)
	truth := cost.Location{0.01, 0.2}
	for _, r := range runners {
		t.Run(r.name, func(t *testing.T) {
			out := r.run(context.Background(), s, truth)
			qrun := cost.Location{0, 0}
			completed := 0
			for _, x := range out.Executions {
				if x.Dim < 0 {
					continue
				}
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
					if got, ok := out.LearnedSel[x.Dim]; !ok || got != x.Learned {
						t.Errorf("LearnedSel[%d] = %g (present %v), want %g", x.Dim, got, ok, x.Learned)
					}
				}
				if x.Learned > qrun[x.Dim] {
					qrun[x.Dim] = x.Learned
				}
			}
			if len(out.LearnedSel) != completed {
				t.Errorf("LearnedSel has %d entries, %d spills completed", len(out.LearnedSel), completed)
			}
			for d, sel := range out.LearnedSel {
				if sel != truth[d] {
					t.Errorf("LearnedSel[%d] = %g, want %g", d, sel, truth[d])
				}
			}
		})
	}
}
