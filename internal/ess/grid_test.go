package ess

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/optimizer"
	"repro/internal/query"
	"repro/internal/workload"
)

// specModel builds the cost model of a listed benchmark query.
func specModel(t *testing.T, sp workload.Spec) *cost.Model {
	t.Helper()
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
	return cost.MustNewModel(q, cost.PostgresLike())
}

// saved returns the bytes Save writes for s.
func saved(t *testing.T, s *Space) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := s.Save(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// requireOracle fails unless BuildParallelContext at 1, 2 and 3 workers
// equals the per-cell reference build bit for bit: every cell's cost bits
// and plan number, every plan's fingerprint and the saved bytes.
func requireOracle(t *testing.T, name string, m *cost.Model, g Grid) {
	t.Helper()
	want := sequentialBuild(optimizer.MustNew(m), g)
	wantBytes := saved(t, want)
	for _, workers := range []int{1, 2, 3} {
		got, err := BuildParallelContext(context.Background(), m, g, workers, nil)
		if err != nil {
			t.Fatalf("%s workers=%d: %v", name, workers, err)
		}
		for ci := 0; ci < g.Size(); ci++ {
			if math.Float64bits(got.CostAt(ci)) != math.Float64bits(want.CostAt(ci)) {
				t.Fatalf("%s workers=%d cell %d: cost %v, per-cell optimizer %v",
					name, workers, ci, got.CostAt(ci), want.CostAt(ci))
			}
			if got.PlanIDAt(ci) != want.PlanIDAt(ci) {
				t.Fatalf("%s workers=%d cell %d: plan %d, per-cell optimizer %d",
					name, workers, ci, got.PlanIDAt(ci), want.PlanIDAt(ci))
			}
		}
		if len(got.Plans()) != len(want.Plans()) {
			t.Fatalf("%s workers=%d: POSP %d plans, per-cell optimizer %d",
				name, workers, len(got.Plans()), len(want.Plans()))
		}
		for i, p := range got.Plans() {
			if p.Fingerprint() != want.Plans()[i].Fingerprint() {
				t.Fatalf("%s workers=%d plan %d: %s, per-cell optimizer %s",
					name, workers, i, p.Fingerprint(), want.Plans()[i].Fingerprint())
			}
		}
		if !bytes.Equal(saved(t, got), wantBytes) {
			t.Fatalf("%s workers=%d: saved bytes differ from the per-cell build's", name, workers)
		}
	}
}

// tiedParams is PostgresLike with free hashing, sorting and operator steps
// and no spills: every hash join then costs exactly what the merge join of
// the same split costs, so a build that orders the alternatives differently
// from Optimize picks different plans.
func tiedParams() cost.Params {
	p := cost.PostgresLike()
	p.Name = "tied"
	p.CPUOperCost, p.HashQualCost, p.SortCmpCost = 0, 0, 0
	p.WorkMemRows = math.Inf(1)
	return p
}

// TestBuildMatchesPerCellOptimizer is the oracle of the whole-grid DP: on
// every listed query at its default resolution, and on random connected
// queries under PostgresLike and under tiedParams, the build equals one
// Optimize call per cell.
func TestBuildMatchesPerCellOptimizer(t *testing.T) {
	for _, sp := range workload.All() {
		requireOracle(t, sp.Name, specModel(t, sp), NewGrid(sp.D, sp.GridRes, sp.GridLo))
	}
	cat := catalog.TPCDS(1)
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 24; trial++ {
		q, err := workload.Random(cat, rng, workload.GenOptions{
			Relations:  2 + rng.Intn(5),
			EPPs:       1 + rng.Intn(4),
			MaxFilters: 2,
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		res := []int{0, 16, 10, 6, 4}[q.D()]
		g := NewGrid(q.D(), res, 1e-6)
		for _, p := range []cost.Params{cost.PostgresLike(), tiedParams()} {
			requireOracle(t, p.Name+" "+workload.Describe(q), cost.MustNewModel(q, p), g)
		}
	}
}

// splitCounts computes, apart from the optimizer, the split evaluations of
// a whole-grid build (each connected subset's valid splits once per grid
// point of the epps inside it) and of one per-cell DP (each subset's valid
// splits once). A valid split has two connected sides and a join crossing
// it.
func splitCounts(q *query.Query, g Grid) (grid, perCell int) {
	n := len(q.Relations)
	inside := func(s int, j query.Join) bool {
		return s>>j.LeftRel&1 == 1 && s>>j.RightRel&1 == 1
	}
	connected := func(s int) bool {
		reach := s & -s
		for grown := true; grown; {
			grown = false
			for _, j := range q.Joins {
				if inside(s, j) && (reach>>j.LeftRel&1 == 1) != (reach>>j.RightRel&1 == 1) {
					reach |= 1<<j.LeftRel | 1<<j.RightRel
					grown = true
				}
			}
		}
		return reach == s
	}
	for s := 1; s < 1<<n; s++ {
		if bits.OnesCount(uint(s)) < 2 || !connected(s) {
			continue
		}
		valid := 0
		for s1 := 1; s1 < s; s1++ {
			s2 := s &^ s1
			if s1&^s != 0 || s2 == 0 || !connected(s1) || !connected(s2) {
				continue
			}
			for _, j := range q.Joins {
				if inside(s, j) && !inside(s1, j) && !inside(s2, j) {
					valid++
					break
				}
			}
		}
		points := 1
		for d, id := range q.EPPs {
			if inside(s, q.Joins[id]) {
				points *= g.Res(d)
			}
		}
		grid += points * valid
		perCell += valid
	}
	return grid, perCell
}

// TestBuildSplitCount checks optimizer.splits, the build's host-independent
// work count (TestBuildSplitsGolden in internal/bouquet pins its value): it
// equals the count of splitCounts, and, as a percentage of
// what one DP per cell evaluates rounded to a tenth, it is at most the
// given figure (the exact shares are 20.84%, 16.78% and 10.07%).
func TestBuildSplitCount(t *testing.T) {
	for _, c := range []struct {
		name    string
		percent float64
	}{{"4D_Q91", 20.8}, {"5D_Q84", 16.8}, {"6D_Q18", 10.1}} {
		sp, ok := workload.ByName(c.name)
		if !ok {
			t.Fatalf("%s is not listed", c.name)
		}
		g := NewGrid(sp.D, sp.GridRes, sp.GridLo)
		s, err := BuildParallelContext(context.Background(), specModel(t, sp), g, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, perCell := splitCounts(s.Query, g)
		if s.Splits() != want {
			t.Errorf("%s: %d split evaluations, want %d", c.name, s.Splits(), want)
		}
		percent := 100 * float64(s.Splits()) / float64(g.Size()*perCell)
		if math.Round(10*percent)/10 > c.percent {
			t.Errorf("%s: %d split evaluations are %.2f%% of %d cells × %d splits, more than %.1f%%",
				c.name, s.Splits(), percent, g.Size(), perCell, c.percent)
		}
	}
}

// TestBuildParallelContextCancelMidBuild cancels the context from the
// first progress tick: the build stops early, returns the context's error
// and no Space, and leaves no worker goroutine behind.
func TestBuildParallelContextCancelMidBuild(t *testing.T) {
	sp, _ := workload.ByName("4D_Q91")
	m := specModel(t, sp)
	g := NewGrid(sp.D, sp.GridRes, sp.GridLo)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	var ticks atomic.Int64
	s, err := BuildParallelContext(ctx, m, g, 2, func(done, total int) {
		ticks.Add(1)
		once.Do(cancel)
	})
	if !errors.Is(err, context.Canceled) || s != nil {
		t.Fatalf("canceled build returned (%v, %v), want no space and %v", s, err, context.Canceled)
	}
	if n := ticks.Load(); n == 0 || n >= int64(g.Size()) {
		t.Errorf("%d progress ticks of %d cells: the build did not stop midway", n, g.Size())
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the build, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}
