package repro

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/faults"
)

// TestParseStrategyExactNames pins the name contract: every registered
// name resolves to itself, while former aliases and non-canonical spellings
// are unknown, and the error enumerates the registry.
func TestParseStrategyExactNames(t *testing.T) {
	for _, name := range strategyNames() {
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

// TestStrategiesResolve checks the fixed strategy table: Strategies lists
// seven distinct lowercase names in order, each of which LookupStrategy
// resolves to the strategy describing itself, without allocating.
func TestStrategiesResolve(t *testing.T) {
	infos := Strategies()
	if len(infos) != 7 {
		t.Fatalf("%d strategies, want 7: %+v", len(infos), infos)
	}
	for i, info := range infos {
		if info.Name == "" || info.Name != strings.ToLower(info.Name) || i > 0 && infos[i-1].Name >= info.Name {
			t.Errorf("strategy %d named %q: names must be non-empty, lowercase, distinct and sorted", i, info.Name)
		}
		st, ok := LookupStrategy(info.Name)
		if !ok || st.Info().Name != info.Name {
			t.Errorf("listed strategy %q not resolvable", info.Name)
		}
	}
	if n := testing.AllocsPerRun(100, func() { LookupStrategy("minmaxregret") }); n != 0 {
		t.Errorf("LookupStrategy allocates %g times", n)
	}
}

// TestSelectionStrategiesRunAndSweep runs each selection-family strategy
// end-to-end on the shared 2D session: no MSO guarantee (+Inf), but every
// run must finish its budget-doubling ladder on one committed plan with the
// charged ledger matching the step stream, and sweeps must land finite —
// for them and, over one shared sample, for every strategy.
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

	// Every strategy over one shared sample (the sweep seed picks it) must
	// land a finite MSO >= 1, and discovery strategies stay within their
	// guarantees (+Inf for the rest, which never trips).
	for _, name := range strategyNames() {
		sum, err := sess.Sweep(Algorithm(name), 16)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsInf(sum.MSO, 0) || math.IsNaN(sum.MSO) || sum.MSO < 1 {
			t.Errorf("%v: MSO %g is not finite and >= 1", sum.Algorithm, sum.MSO)
		}
		if g := sess.Guarantee(sum.Algorithm); sum.MSO > g+1e-9 {
			t.Errorf("%v: MSO %g exceeds guarantee %g", sum.Algorithm, sum.MSO, g)
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

	crashed, err := sess.RunDurable(WithFaults(ctx, &FaultPlan{CrashAtCheckpoint: 2}), a, truth, "sel-crash")
	if !faults.IsCrash(err) {
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
	if rs, err := sess.DurableRunState("sel-crash"); err != nil || !rs.Completed {
		t.Errorf("resumed snapshot not terminal: %+v err=%v", rs, err)
	}
}
