package ess

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/workload"
)

// requireLentCostsMatchEval has several goroutines share out the cells of
// the space, each borrowing a PlanCosts per cell, costing the POSP's
// schedule there and returning it, and fails unless every POSP plan at
// every cell costs bit for bit what Model.Eval gives. Clones pass between
// cells and goroutines through the Space, so a memo left stale by an
// earlier borrower shows as a mismatch.
func requireLentCostsMatchEval(t *testing.T, name string, s *Space) {
	t.Helper()
	const goroutines = 4
	all := make([]int, len(s.Plans()))
	for id := range all {
		all[id] = id
	}
	slots, _ := s.PlanSchedule(all)
	var wg sync.WaitGroup
	for k := 0; k < goroutines; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ci := k; ci < s.Grid.Size(); ci += goroutines {
				c := s.BorrowCosts()
				c.Eval([]int{ci}, slots, []int{len(slots)})
				loc := s.Grid.Location(ci)
				for id, p := range s.Plans() {
					if got, want := c.Cost(0, id), s.Model.Eval(p, loc); math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("%s: plan %d at cell %d: lent table %v, Model.Eval %v", name, id, ci, got, want)
						s.ReturnCosts(c)
						return
					}
				}
				s.ReturnCosts(c)
			}
		}()
	}
	wg.Wait()
}

func TestLentCostsMatchEval(t *testing.T) {
	sp, ok := workload.ByName("4D_Q91")
	if !ok {
		t.Fatal("4D_Q91: unknown query")
	}
	s, err := BuildParallelContext(context.Background(), specModel(t, sp), NewGrid(sp.D, 6, sp.GridLo), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireLentCostsMatchEval(t, sp.Name, s)

	cat := catalog.TPCDS(1)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 4; trial++ {
		q, err := workload.Random(cat, rng, workload.GenOptions{
			Relations:  3 + rng.Intn(4),
			EPPs:       1 + rng.Intn(3),
			MaxFilters: 2,
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		m := cost.MustNewModel(q, cost.PostgresLike())
		s, err := BuildParallelContext(context.Background(), m, NewGrid(q.D(), []int{0, 16, 8, 5}[q.D()], 1e-6), 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		requireLentCostsMatchEval(t, workload.Describe(q), s)
	}
}

// TestLentCostsReborrowed costs a table at one cell, gives it back and
// borrows again: the table costs the next cell afresh, not from the memo
// the first borrower left.
func TestLentCostsReborrowed(t *testing.T) {
	sp, _ := workload.ByName("4D_Q91")
	s, err := BuildParallelContext(context.Background(), specModel(t, sp), NewGrid(sp.D, 4, sp.GridLo), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := s.Grid.Origin(), s.Grid.Terminus()
	all := make([]int, len(s.Plans()))
	for id := range all {
		all[id] = id
	}
	slots, _ := s.PlanSchedule(all)
	c := s.BorrowCosts()
	c.Eval([]int{lo}, slots, []int{len(slots)})
	for id := range s.Plans() {
		c.Cost(0, id)
	}
	s.ReturnCosts(c)
	c = s.BorrowCosts()
	defer s.ReturnCosts(c)
	c.Eval([]int{hi}, slots, []int{len(slots)})
	loc := s.Grid.Location(hi)
	for id, p := range s.Plans() {
		if got, want := c.Cost(0, id), s.Model.Eval(p, loc); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("plan %d at the terminus after a reborrow: %v, Model.Eval %v", id, got, want)
		}
	}
}
