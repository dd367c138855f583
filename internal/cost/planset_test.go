package cost_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/ess"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/workload"
)

// requireBitIdentical fails unless the plan set costs the plans of the
// space bit-identically to Model.Eval at each of the sampled cells, through
// the schedule of a shuffled order of the whole set, in ragged batches: 1
// to cost.Lanes lanes at distinct cells, each lane cut at a random suffix
// of the order (or none), the cuts non-increasing. Every lane must cost
// each plan of its suffix as Model.Eval does, and as the same cell alone
// in one lane does. Each batch is evaluated by a fresh clone, so a node a
// lane drops reads as zero, not as its cost at an earlier cell.
func requireBitIdentical(t *testing.T, name string, s *ess.Space, cells []int, rng *rand.Rand) {
	t.Helper()
	plans := s.Plans()
	ps := cost.NewPlanSet(s.Model, plans)
	nodes := 0
	for _, p := range plans {
		p.Walk(func(*plan.Node) { nodes++ })
	}
	if len(plans) > 1 && ps.Nodes() >= nodes {
		t.Errorf("%s: %d plans with %d nodes interned into %d: no subtree shared",
			name, len(plans), nodes, ps.Nodes())
	}
	order := rng.Perm(len(plans))
	slots, cut := ps.Schedule(order)
	requireSchedules(t, name, ps, order, slots, cut)
	for len(cells) > 0 {
		n := min(1+rng.Intn(cost.Lanes), len(cells))
		batch := cells[:n]
		cells = cells[n:]
		// Lane j holds order[from[j]:]; from 0 is the whole schedule.
		from := make([]int, n)
		for j := range from {
			if rng.Intn(3) > 0 {
				from[j] = 1 + rng.Intn(len(order))
			}
		}
		slices.Sort(from)
		locs := make([]cost.Location, n)
		cuts := make([]int, n)
		for j, ci := range batch {
			locs[j] = s.Grid.Location(ci)
			cuts[j] = len(slots)
			if from[j] > 0 {
				cuts[j] = cut[from[j]-1]
			}
		}
		ev := ps.Clone()
		ev.Eval(locs, slots, cuts)
		for j, ci := range batch {
			one := ps.Clone()
			one.Eval(locs[j:j+1], slots, cuts[j:j+1])
			for _, id := range order[from[j]:] {
				got, alone, want := ev.Cost(j, id), one.Cost(0, id), s.Model.Eval(plans[id], locs[j])
				if math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(alone) != math.Float64bits(want) {
					t.Fatalf("%s: plan %d at cell %d in lane %d of %d: PlanSet %v (alone %v), Model.Eval %v",
						name, id, ci, j, n, got, alone, want)
				}
			}
		}
	}
}

// closureOf marks, by slot, every node of plans ids: a depth-first walk
// from their roots.
func closureOf(ps *cost.PlanSet, ids []int) []bool {
	mark := make([]bool, ps.Nodes())
	var stack []int32
	for _, id := range ids {
		if k := ps.Root(id); k >= 0 {
			stack = append(stack, k)
		}
	}
	for len(stack) > 0 {
		k := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if mark[k] {
			continue
		}
		mark[k] = true
		l, r := ps.Children(k)
		for _, c := range []int32{l, r} {
			if c >= 0 {
				stack = append(stack, c)
			}
		}
	}
	return mark
}

// requireSchedule fails unless slots lists exactly the marked nodes, each
// once, and each node's children before it.
func requireSchedule(t *testing.T, name string, ps *cost.PlanSet, slots []int32, want []bool) {
	t.Helper()
	pos := make([]int, ps.Nodes())
	for k := range pos {
		pos[k] = -1
	}
	for i, k := range slots {
		if pos[k] >= 0 {
			t.Fatalf("%s: slot %d scheduled at %d and %d", name, k, pos[k], i)
		}
		if !want[k] {
			t.Fatalf("%s: slot %d scheduled at %d, but no plan of the schedule holds it", name, k, i)
		}
		pos[k] = i
	}
	for k, w := range want {
		if w && pos[k] < 0 {
			t.Fatalf("%s: slot %d of a scheduled plan is missing from the schedule", name, k)
		}
	}
	for i, k := range slots {
		l, r := ps.Children(k)
		for _, c := range []int32{l, r} {
			if c >= 0 && pos[c] > i {
				t.Fatalf("%s: slot %d at %d comes before its child %d at %d", name, k, i, c, pos[c])
			}
		}
	}
}

// requireSchedules fails unless slots is the schedule of every plan of
// order and, for each position i, slots[:cut[i]] is the schedule of
// order[i+1:].
func requireSchedules(t *testing.T, name string, ps *cost.PlanSet, order []int, slots []int32, cut []int) {
	t.Helper()
	if len(cut) != len(order) {
		t.Fatalf("%s: %d cuts for %d plans", name, len(cut), len(order))
	}
	requireSchedule(t, name, ps, slots, closureOf(ps, order))
	for i := range order {
		requireSchedule(t, fmt.Sprintf("%s after %d", name, i), ps, slots[:cut[i]], closureOf(ps, order[i+1:]))
	}
}

// sampleCells draws k distinct cells of the grid (all of them if it has at
// most k).
func sampleCells(g ess.Grid, k int, rng *rand.Rand) []int {
	perm := rng.Perm(g.Size())
	if len(perm) > k {
		perm = perm[:k]
	}
	return perm
}

func TestPlanSetMatchesEvalOnBenchmarkPOSP(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, name := range []string{"4D_Q91", "5D_Q84"} {
		sp, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("%s: unknown query", name)
		}
		q, err := sp.Build(catalog.TPCDS(100))
		if err != nil {
			t.Fatal(err)
		}
		m := cost.MustNewModel(q, cost.PostgresLike())
		s, err := ess.BuildParallelContext(context.Background(), m, ess.NewGrid(q.D(), 4, sp.GridLo), 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, name, s, sampleCells(s.Grid, 64, rng), rng)
	}
}

// TestPlanSetSchedulesOnBenchmarkSpaces checks the schedules and the kernel
// on the spaces benchmark sessions reduce, at their recommended grids.
func TestPlanSetSchedulesOnBenchmarkSpaces(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, name := range []string{"4D_Q91", "5D_Q84", "6D_Q18"} {
		sp, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("%s: unknown query", name)
		}
		q, err := sp.Build(catalog.TPCDS(100))
		if err != nil {
			t.Fatal(err)
		}
		m := cost.MustNewModel(q, cost.PostgresLike())
		s, err := ess.BuildParallelContext(context.Background(), m, ess.NewGrid(q.D(), sp.GridRes, sp.GridLo), 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, name, s, sampleCells(s.Grid, 16, rng), rng)
	}
}

func TestPlanSetMatchesEvalOnRandomQueries(t *testing.T) {
	cat := catalog.TPCDS(1)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 8; trial++ {
		q, err := workload.Random(cat, rng, workload.GenOptions{
			Relations:  3 + rng.Intn(4),
			EPPs:       1 + rng.Intn(3),
			MaxFilters: 2,
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		m := cost.MustNewModel(q, cost.PostgresLike())
		s, err := ess.BuildParallelContext(context.Background(), m, ess.NewGrid(q.D(), []int{0, 16, 8, 5}[q.D()], 1e-6), 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, workload.Describe(q), s, sampleCells(s.Grid, 64, rng), rng)
	}
}

// TestPlanSetAggregateAndIndexJoin pins the operators the DP rarely puts at
// the root: an aggregate over an index nested-loop join over a sort-merge
// join, against Model.Eval at many locations.
func TestPlanSetAggregateAndIndexJoin(t *testing.T) {
	sp, _ := workload.ByName("3D_Q91")
	q, err := sp.Build(catalog.TPCDS(100))
	if err != nil {
		t.Fatal(err)
	}
	m := cost.MustNewModel(q, cost.PostgresLike())
	o := optimizer.MustNew(m)
	p, _ := o.Optimize(m.EstimateLocation())
	scan := func(rel int) *plan.Node { return &plan.Node{Kind: plan.SeqScan, Rel: rel} }
	sorted := func(n *plan.Node) *plan.Node { return &plan.Node{Kind: plan.Sort, Rel: -1, Left: n} }
	j0 := q.Joins[0]
	mj := &plan.Node{Kind: plan.MergeJoin, Rel: -1, JoinIDs: []int{j0.ID},
		Left: sorted(scan(j0.LeftRel)), Right: sorted(scan(j0.RightRel))}
	inl := &plan.Node{Kind: plan.IndexNestLoop, Rel: -1, JoinIDs: []int{j0.ID},
		Left: scan(j0.LeftRel), Right: scan(j0.RightRel)}
	plans := []*plan.Plan{
		p,
		plan.New(&plan.Node{Kind: plan.Aggregate, Rel: -1, Left: mj}),
		plan.New(inl),
		plan.New(&plan.Node{Kind: plan.Aggregate, Rel: -1, Left: inl}),
	}
	ps := cost.NewPlanSet(m, plans)
	slots, _ := ps.Schedule([]int{0, 1, 2, 3})
	g := ess.NewGrid(q.D(), 4, sp.GridLo)
	for ci := 0; ci < g.Size(); ci++ {
		loc := g.Location(ci)
		ps.Eval([]cost.Location{loc}, slots, []int{len(slots)})
		for i, pl := range plans {
			if got, want := ps.Cost(0, i), m.Eval(pl, loc); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("plan %d at %v: PlanSet %v, Model.Eval %v", i, loc, got, want)
			}
		}
	}
}
