package cost_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/ess"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/workload"
)

// requireBitIdentical fails unless the plan set costs every plan of the
// space bit-identically to Model.Eval at each of the sampled cells. Plans
// are costed in a shuffled order so that the memo serves shared subtrees
// to plans in an order unrelated to how they were interned.
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
	for _, ci := range cells {
		loc := s.Grid.Location(ci)
		ps.At(loc)
		for _, id := range rng.Perm(len(plans)) {
			got, want := ps.Cost(id), s.Model.Eval(plans[id], loc)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: plan %d at cell %d: PlanSet %v, Model.Eval %v", name, id, ci, got, want)
			}
		}
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
		o := optimizer.MustNew(cost.MustNewModel(q, cost.PostgresLike()))
		s := ess.Build(o, ess.NewGrid(q.D(), 4, sp.GridLo))
		requireBitIdentical(t, name, s, sampleCells(s.Grid, 64, rng), rng)
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
		o := optimizer.MustNew(cost.MustNewModel(q, cost.PostgresLike()))
		s := ess.Build(o, ess.NewGrid(q.D(), []int{0, 16, 8, 5}[q.D()], 1e-6))
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
	g := ess.NewGrid(q.D(), 4, sp.GridLo)
	for ci := 0; ci < g.Size(); ci++ {
		loc := g.Location(ci)
		ps.At(loc)
		for i, pl := range plans {
			if got, want := ps.Cost(i), m.Eval(pl, loc); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("plan %d at %v: PlanSet %v, Model.Eval %v", i, loc, got, want)
			}
		}
	}
}
