package ess

import (
	"context"
	"sync"
	"testing"

	"repro/internal/optimizer"
)

// sequentialBuild is the reference build: one optimizer walks the grid in
// flat cell order, numbering plans by first appearance. BuildParallelContext
// must reproduce it exactly at every worker count.
func sequentialBuild(opt *optimizer.Optimizer, g Grid) *Space {
	s := &Space{
		Grid:    g,
		Query:   opt.Model().Query,
		Model:   opt.Model(),
		optCost: make([]float64, g.Size()),
		planIdx: make([]int32, g.Size()),
	}
	byFP := make(map[string]int32)
	for ci := 0; ci < g.Size(); ci++ {
		p, c := opt.Optimize(g.Location(ci))
		fp := p.Fingerprint()
		id, ok := byFP[fp]
		if !ok {
			id = int32(len(s.plans))
			s.plans = append(s.plans, p)
			byFP[fp] = id
		}
		s.optCost[ci] = c
		s.planIdx[ci] = id
	}
	return s
}

// sequentialSpace is buildSpace through the reference build.
func sequentialSpace(t *testing.T, res int) *Space {
	t.Helper()
	return sequentialBuild(optimizer.MustNew(testModel(t)), NewGrid(2, res, 1e-6))
}

// TestBuildParallelContextMatchesSequential proves the pooled build is
// byte-identical to the sequential reference: same costs, same plan
// numbering, same fingerprints, same contour ladder.
func TestBuildParallelContextMatchesSequential(t *testing.T) {
	s := sequentialSpace(t, 8)
	for _, workers := range []int{1, 2, 3, 8, 64} {
		par, err := BuildParallelContext(context.Background(), s.Model, s.Grid, workers, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(par.Plans()) != len(s.Plans()) {
			t.Fatalf("workers=%d: POSP %d != %d", workers, len(par.Plans()), len(s.Plans()))
		}
		for ci := 0; ci < s.Grid.Size(); ci++ {
			if par.CostAt(ci) != s.CostAt(ci) {
				t.Fatalf("workers=%d cell %d: cost %g != %g", workers, ci, par.CostAt(ci), s.CostAt(ci))
			}
			if par.PlanIDAt(ci) != s.PlanIDAt(ci) {
				t.Fatalf("workers=%d cell %d: plan id %d != %d", workers, ci, par.PlanIDAt(ci), s.PlanIDAt(ci))
			}
			if par.PlanAt(ci).Fingerprint() != s.PlanAt(ci).Fingerprint() {
				t.Fatalf("workers=%d cell %d: plan mismatch", workers, ci)
			}
		}
		want, got := s.ContourCosts(CostDoublingRatio), par.ContourCosts(CostDoublingRatio)
		if len(want) != len(got) {
			t.Fatalf("workers=%d: contour count %d != %d", workers, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("workers=%d: contour %d cost %g != %g", workers, i, got[i], want[i])
			}
		}
	}
}

// TestBuildParallelContextCancel proves an already-canceled context aborts
// the build with the context's error instead of returning a partial space.
func TestBuildParallelContextCancel(t *testing.T) {
	s := buildSpace(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sp, err := BuildParallelContext(ctx, s.Model, s.Grid, 4, nil)
	if err == nil || sp != nil {
		t.Fatalf("canceled build returned (%v, %v), want nil space and ctx error", sp, err)
	}
	if ctx.Err() == nil || err.Error() != ctx.Err().Error() {
		t.Errorf("err = %v, want %v", err, ctx.Err())
	}
}

// TestBuildParallelContextProgress proves the progress callback observes
// every cell exactly once and the final count equals the grid size.
func TestBuildParallelContextProgress(t *testing.T) {
	s := buildSpace(t, 6)
	var mu sync.Mutex
	calls := 0
	maxDone := 0
	_, err := BuildParallelContext(context.Background(), s.Model, s.Grid, 4, func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if done > maxDone {
			maxDone = done
		}
		if total != s.Grid.Size() {
			t.Errorf("total = %d, want %d", total, s.Grid.Size())
		}
		if done < 1 || done > total {
			t.Errorf("done = %d outside [1,%d]", done, total)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != s.Grid.Size() {
		t.Errorf("progress called %d times, want %d", calls, s.Grid.Size())
	}
	if maxDone != s.Grid.Size() {
		t.Errorf("max done %d, want %d", maxDone, s.Grid.Size())
	}
}
