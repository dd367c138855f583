package repro

import (
	"context"
	"sync"
	"testing"
)

// parallelCases are the 2D and 3D queries the equivalence tests run over
// (small enough grids to keep -race runs quick, large enough for real
// worker contention).
func parallelCases() []struct {
	name string
	res  int
} {
	return []struct {
		name string
		res  int
	}{
		{"2D_Q91", 10},
		{"3D_Q91", 7},
	}
}

// TestParallelBuildMatchesSerialSession proves NewSession's default
// parallel build yields a Session identical to a forced-serial build:
// same optimal cost surface, plan assignment, POSP, contour ladder and
// guarantees, on a 2D and a 3D query.
func TestParallelBuildMatchesSerialSession(t *testing.T) {
	for _, tc := range parallelCases() {
		t.Run(tc.name, func(t *testing.T) {
			opts := BenchmarkOptions()
			opts.GridRes = tc.res
			opts.Workers = 1
			serial, err := NewBenchmarkSession(benchmarkQuery(t, tc.name), opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.Workers = 8
			par, err := NewBenchmarkSession(benchmarkQuery(t, tc.name), opts)
			if err != nil {
				t.Fatal(err)
			}
			if par.POSPSize() != serial.POSPSize() {
				t.Fatalf("POSP %d != %d", par.POSPSize(), serial.POSPSize())
			}
			if par.ContourCount() != serial.ContourCount() {
				t.Fatalf("contours %d != %d", par.ContourCount(), serial.ContourCount())
			}
			for ci := 0; ci < serial.space.Grid.Size(); ci++ {
				if par.space.CostAt(ci) != serial.space.CostAt(ci) {
					t.Fatalf("cell %d: cost %g != %g", ci, par.space.CostAt(ci), serial.space.CostAt(ci))
				}
				if par.space.PlanIDAt(ci) != serial.space.PlanIDAt(ci) {
					t.Fatalf("cell %d: plan id %d != %d", ci, par.space.PlanIDAt(ci), serial.space.PlanIDAt(ci))
				}
				if par.space.PlanAt(ci).Fingerprint() != serial.space.PlanAt(ci).Fingerprint() {
					t.Fatalf("cell %d: plan fingerprint mismatch", ci)
				}
			}
			for _, a := range []Algorithm{PlanBouquet, SpillBound, AlignedBound} {
				if par.Guarantee(a) != serial.Guarantee(a) {
					t.Errorf("%v guarantee %g != %g", a, par.Guarantee(a), serial.Guarantee(a))
				}
			}
		})
	}
}

// TestParallelSweepMatchesSerial proves a sharded sweep reports exactly the
// serial sweep's MSO, ASO and worst cell for every algorithm, exhaustive
// and sampled, on a 2D and a 3D query.
func TestParallelSweepMatchesSerial(t *testing.T) {
	for _, tc := range parallelCases() {
		t.Run(tc.name, func(t *testing.T) {
			opts := BenchmarkOptions()
			opts.GridRes = tc.res
			sess, err := NewBenchmarkSession(benchmarkQuery(t, tc.name), opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, max := range []int{0, 20} {
				for _, a := range []Algorithm{Native, PlanBouquet, SpillBound, AlignedBound} {
					sess.opts.Workers = 1
					serial, err := sess.Sweep(a, max)
					if err != nil {
						t.Fatal(err)
					}
					sess.opts.Workers = 8
					par, err := sess.Sweep(a, max)
					if err != nil {
						t.Fatal(err)
					}
					if par.MSO != serial.MSO || par.ASO != serial.ASO {
						t.Errorf("%v max=%d: MSO/ASO %g/%g != %g/%g", a, max, par.MSO, par.ASO, serial.MSO, serial.ASO)
					}
					if len(par.WorstLocation) != len(serial.WorstLocation) {
						t.Fatalf("%v max=%d: worst location arity differs", a, max)
					}
					for d := range par.WorstLocation {
						if par.WorstLocation[d] != serial.WorstLocation[d] {
							t.Errorf("%v max=%d: worst location %v != %v", a, max, par.WorstLocation, serial.WorstLocation)
							break
						}
					}
					if par.Locations != serial.Locations {
						t.Errorf("%v max=%d: locations %d != %d", a, max, par.Locations, serial.Locations)
					}
				}
			}
		})
	}
}

// TestSweepSeedOption proves sampled sweeps are reproducible per seed and
// that the seed is honoured through Options.
func TestSweepSeedOption(t *testing.T) {
	opts := BenchmarkOptions()
	opts.GridRes = 10
	opts.SweepSeed = 7
	sess, err := NewBenchmarkSession(benchmarkQuery(t, "2D_Q91"), opts)
	if err != nil {
		t.Fatal(err)
	}
	a, err := sess.Sweep(SpillBound, 16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sess.Sweep(SpillBound, 16)
	if err != nil {
		t.Fatal(err)
	}
	if a.MSO != b.MSO || a.ASO != b.ASO || a.Locations != b.Locations {
		t.Errorf("same-seed sweeps diverge: %+v vs %+v", a, b)
	}
	// The default seed (SweepSeed 0 → 1) must match an explicit 1.
	sess.opts.SweepSeed = 0
	c, err := sess.Sweep(SpillBound, 16)
	if err != nil {
		t.Fatal(err)
	}
	sess.opts.SweepSeed = 1
	d, err := sess.Sweep(SpillBound, 16)
	if err != nil {
		t.Fatal(err)
	}
	if c.MSO != d.MSO || c.ASO != d.ASO {
		t.Errorf("default seed is not 1: %+v vs %+v", c, d)
	}
}

// TestNewSessionContextCancel proves a canceled context aborts the ESS
// build with the context's error.
func TestNewSessionContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := newSessionContext(ctx, TPCDSCatalog(10), paperEQ, paperEPPs, DefaultOptions()); err == nil {
		t.Fatal("canceled build should fail")
	}
}

// TestBuildProgressOption proves Options.BuildProgress observes every grid
// cell of the construction.
func TestBuildProgressOption(t *testing.T) {
	opts := BenchmarkOptions()
	opts.GridRes = 8
	var mu sync.Mutex
	calls, maxDone, lastTotal := 0, 0, 0
	opts.BuildProgress = func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if done > maxDone {
			maxDone = done
		}
		lastTotal = total
	}
	if _, err := NewBenchmarkSession(benchmarkQuery(t, "2D_Q91"), opts); err != nil {
		t.Fatal(err)
	}
	if want := 8 * 8; calls != want || maxDone != want || lastTotal != want {
		t.Errorf("progress calls=%d maxDone=%d total=%d, want all %d", calls, maxDone, lastTotal, want)
	}
}

// TestSessionOptimizerReuse proves repeated runs at one truth agree with
// each other and with a fresh session (the shared memoized optimizer does
// not leak state across calls).
func TestSessionOptimizerReuse(t *testing.T) {
	opts := BenchmarkOptions()
	opts.GridRes = 8
	sess, err := NewBenchmarkSession(benchmarkQuery(t, "2D_Q91"), opts)
	if err != nil {
		t.Fatal(err)
	}
	truth := Location{0.01, 0.1}
	r1, err := sess.Run(SpillBound, truth)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sess.Run(SpillBound, truth)
	if err != nil {
		t.Fatal(err)
	}
	if r1.TotalCost != r2.TotalCost || r1.OptimalCost != r2.OptimalCost {
		t.Errorf("repeated runs diverge: %+v vs %+v", r1, r2)
	}
	fresh, err := NewBenchmarkSession(benchmarkQuery(t, "2D_Q91"), opts)
	if err != nil {
		t.Fatal(err)
	}
	r3, err := fresh.Run(SpillBound, truth)
	if err != nil {
		t.Fatal(err)
	}
	if r1.OptimalCost != r3.OptimalCost || r1.TotalCost != r3.TotalCost {
		t.Errorf("fresh session diverges: %+v vs %+v", r1, r3)
	}
}

// TestConcurrentRunsOnOneSession hammers one session's Run and Sweep from
// many goroutines — the server serves concurrent requests against a shared
// session, so the memoized optimizer path must be race-free (exercised
// under -race in CI).
func TestConcurrentRunsOnOneSession(t *testing.T) {
	opts := BenchmarkOptions()
	opts.GridRes = 8
	sess, err := NewBenchmarkSession(benchmarkQuery(t, "2D_Q91"), opts)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sess.Run(SpillBound, Location{0.01, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := sess.Run(SpillBound, Location{0.01, 0.1})
			if err != nil {
				errs <- err
				return
			}
			if res.TotalCost != ref.TotalCost {
				errs <- errMismatch(res.TotalCost, ref.TotalCost)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := sess.Sweep(AlignedBound, 12); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

type mismatchError struct{ got, want float64 }

func (e mismatchError) Error() string {
	return "concurrent run diverged"
}

func errMismatch(got, want float64) error { return mismatchError{got, want} }
