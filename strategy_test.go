package repro

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestParseStrategyExactNames pins the name contract: every registered
// name resolves to itself, while former aliases and non-canonical spellings
// are unknown, and the error enumerates the registry.
func TestParseStrategyExactNames(t *testing.T) {
	for _, name := range StrategyNames() {
		st, err := ParseStrategy(name)
		if err != nil || st.Info().Name != name {
			t.Errorf("ParseStrategy(%q) = %v, %v", name, st, err)
		}
	}
	for _, name := range []string{"sb", "pb", "bouquet", "regret", "SpillBound", " spillbound", ""} {
		_, err := ParseStrategy(name)
		if err == nil || !strings.Contains(err.Error(), "registered: alignedbound") {
			t.Errorf("ParseStrategy(%q) = %v, want an unknown-strategy error listing the registry", name, err)
		}
		if _, ok := LookupStrategy(name); ok {
			t.Errorf("LookupStrategy(%q) resolved", name)
		}
	}
}

// TestStrategyRegistryConcurrency hammers the registry's read and write
// paths from concurrent goroutines — meaningful under -race (make race),
// where it pins the RWMutex discipline. The write path only attempts
// registrations that must be rejected (duplicate name, non-lowercase name),
// so the registry is left exactly as found.
func TestStrategyRegistryConcurrency(t *testing.T) {
	t.Parallel()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(4)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if err := RegisterStrategy(nativeStrategy{}); err == nil {
					t.Error("duplicate registration must fail")
				}
				if err := RegisterStrategy(selectionStrategy{info: StrategyInfo{Name: "SpillBound"}}); err == nil {
					t.Error("non-lowercase registration must fail")
				}
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if names := StrategyNames(); len(names) < 7 {
					t.Errorf("registry shrank: %v", names)
				}
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				for _, info := range Strategies() {
					if _, ok := LookupStrategy(info.Name); !ok {
						t.Errorf("listed strategy %q not resolvable", info.Name)
					}
				}
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if _, err := ParseStrategy("minmaxregret"); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
}

// TestSelectionStrategiesRunAndSweep runs each selection-family strategy
// end-to-end on the shared 2D session: no MSO guarantee (+Inf), but every
// run must finish its budget-doubling ladder on one committed plan with the
// charged ledger matching the step stream, and sweeps must land finite.
func TestSelectionStrategiesRunAndSweep(t *testing.T) {
	sess := newTestSession(t)
	truth := Location{0.02, 0.3}
	for _, name := range []string{"penaltyaware", "probabilistic", "minmaxregret"} {
		a := Algorithm(name)
		if !math.IsInf(sess.Guarantee(a), 1) {
			t.Errorf("%s: selection strategies carry no MSO guarantee", name)
		}
		res, err := sess.Run(a, truth)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Algorithm != a || len(res.Steps) == 0 {
			t.Fatalf("%s: result %+v", name, res)
		}
		var sum float64
		for i, st := range res.Steps {
			sum += st.Spent
			if st.PlanID != res.Steps[0].PlanID {
				t.Errorf("%s: ladder switched plans at step %d", name, i)
			}
			if st.Completed != (i == len(res.Steps)-1) {
				t.Errorf("%s: step %d completed=%v", name, i, st.Completed)
			}
			if i > 0 && st.Budget != 2*res.Steps[i-1].Budget {
				t.Errorf("%s: budget not doubling at step %d: %g after %g",
					name, i, st.Budget, res.Steps[i-1].Budget)
			}
		}
		if math.Abs(sum-res.TotalCost) > 1e-6*res.TotalCost {
			t.Errorf("%s: step spend %g disagrees with TotalCost %g", name, sum, res.TotalCost)
		}
		if res.SubOpt < 1 {
			t.Errorf("%s: sub-optimality %g < 1", name, res.SubOpt)
		}
		sweep, err := sess.Sweep(a, 16)
		if err != nil {
			t.Fatalf("%s sweep: %v", name, err)
		}
		if math.IsInf(sweep.MSO, 0) || sweep.MSO < 1 {
			t.Errorf("%s: sweep MSO %g", name, sweep.MSO)
		}
	}
}

// TestSelectionLadderCrashResume pins the selection family's durability
// contract: the ladder's monotone attempt index checkpoints like a contour
// boundary, so a run killed mid-ladder resumes from its snapshot and plays
// out exactly the remaining suffix of the uninterrupted ladder (the plan
// choice is deterministic and recomputed on resume).
func TestSelectionLadderCrashResume(t *testing.T) {
	sess := newDurableTestSession(t, t.TempDir())
	ctx := context.Background()
	truth := Location{0.8, 0.01, 0.3}
	a := Algorithm("penaltyaware")

	base, err := sess.RunDurable(ctx, a, truth, "sel-base")
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Steps) < 3 {
		t.Fatalf("baseline ladder has %d steps; the crash drill needs a multi-attempt run", len(base.Steps))
	}

	crashed, err := sess.RunDurableWithFaults(ctx, a, truth, "sel-crash", &FaultPlan{CrashAtCheckpoint: 2})
	if !ErrRunCrashed(err) {
		t.Fatalf("want crash, got err=%v (result %+v)", err, crashed)
	}
	resumed, err := sess.ResumeRun(ctx, "sel-crash")
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Resumed {
		t.Error("resumed run not flagged Resumed")
	}
	if n := len(resumed.Steps); n == 0 || n > len(base.Steps) {
		t.Fatalf("resumed ladder has %d steps, baseline %d", n, len(base.Steps))
	}
	// The checkpoint fires at each attempt's start, so the resume point is at
	// most one attempt behind the crash: the resumed steps are a suffix of
	// the baseline ladder.
	off := len(base.Steps) - len(resumed.Steps)
	if off > 2 {
		t.Errorf("resume redid %d attempts; bounded redo allows at most 2", off)
	}
	for i, st := range resumed.Steps {
		if want := base.Steps[off+i]; st != want {
			t.Errorf("resumed step %d = %+v, want %+v", i, st, want)
		}
	}
	if last := resumed.Steps[len(resumed.Steps)-1]; !last.Completed {
		t.Errorf("resumed ladder did not complete: %+v", last)
	}
	if c, _, completed, err := sess.DurableRunState("sel-crash"); err != nil || !completed {
		t.Errorf("resumed snapshot not terminal: contour=%d completed=%v err=%v", c, completed, err)
	}
}
