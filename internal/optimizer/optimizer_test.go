package optimizer

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/plan"
	"repro/internal/sqlmini"
)

func testCatalog() *catalog.Catalog {
	c := catalog.New("test")
	c.MustAddTable(&catalog.Table{
		Name: "part", Rows: 20000, RowBytes: 100,
		Columns: []catalog.Column{
			{Name: "p_partkey", Distinct: 20000, Min: 1, Max: 20000},
			{Name: "p_retailprice", Distinct: 1000, Min: 0, Max: 2000},
		},
	})
	c.MustAddTable(&catalog.Table{
		Name: "lineitem", Rows: 600000, RowBytes: 120,
		Columns: []catalog.Column{
			{Name: "l_partkey", Distinct: 20000, Min: 1, Max: 20000},
			{Name: "l_orderkey", Distinct: 150000, Min: 1, Max: 150000},
		},
	})
	c.MustAddTable(&catalog.Table{
		Name: "orders", Rows: 150000, RowBytes: 80,
		Columns: []catalog.Column{
			{Name: "o_orderkey", Distinct: 150000, Min: 1, Max: 150000},
			{Name: "o_custkey", Distinct: 10000, Min: 1, Max: 10000},
		},
	})
	c.MustAddTable(&catalog.Table{
		Name: "customer", Rows: 10000, RowBytes: 100,
		Columns: []catalog.Column{
			{Name: "c_custkey", Distinct: 10000, Min: 1, Max: 10000},
		},
	})
	return c
}

func exampleOptimizer(t *testing.T) *Optimizer {
	t.Helper()
	q := sqlmini.MustParse(testCatalog(), `
		SELECT * FROM part p, lineitem l, orders o
		WHERE p.p_partkey = l.l_partkey AND l.l_orderkey = o.o_orderkey
		AND p.p_retailprice < 1000`)
	if err := q.MarkEPPs("p.p_partkey = l.l_partkey", "l.l_orderkey = o.o_orderkey"); err != nil {
		t.Fatal(err)
	}
	m := cost.MustNewModel(q, cost.PostgresLike())
	o, err := New(m)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestOptimizeReturnsConsistentCost(t *testing.T) {
	o := exampleOptimizer(t)
	at := cost.Location{1e-4, 1e-5}
	p, c := o.Optimize(at)
	if p == nil {
		t.Fatal("nil plan")
	}
	// The reported cost must equal re-evaluating the plan.
	if ev := o.Model().Eval(p, at); math.Abs(ev-c)/c > 1e-9 {
		t.Errorf("Optimize cost %g != Eval %g", c, ev)
	}
	// The plan must cover all three relations exactly once.
	if got := relations(p); got != 0b111 {
		t.Errorf("plan relations = %b, want 111", got)
	}
}

// relations returns the bitmask of relation indices p scans.
func relations(p *plan.Plan) uint64 {
	var mask uint64
	p.Walk(func(n *plan.Node) {
		if n.Kind == plan.SeqScan {
			mask |= 1 << uint(n.Rel)
		}
	})
	return mask
}

func TestOptimalityAgainstHandBuiltPlans(t *testing.T) {
	o := exampleOptimizer(t)
	m := o.Model()
	hand := []*plan.Plan{
		plan.New(&plan.Node{Kind: plan.HashJoin, Rel: -1, JoinIDs: []int{1},
			Left: &plan.Node{Kind: plan.HashJoin, Rel: -1, JoinIDs: []int{0},
				Left:  &plan.Node{Kind: plan.SeqScan, Rel: 0},
				Right: &plan.Node{Kind: plan.SeqScan, Rel: 1}},
			Right: &plan.Node{Kind: plan.SeqScan, Rel: 2}}),
		plan.New(&plan.Node{Kind: plan.HashJoin, Rel: -1, JoinIDs: []int{0},
			Left: &plan.Node{Kind: plan.HashJoin, Rel: -1, JoinIDs: []int{1},
				Left:  &plan.Node{Kind: plan.SeqScan, Rel: 1},
				Right: &plan.Node{Kind: plan.SeqScan, Rel: 2}},
			Right: &plan.Node{Kind: plan.SeqScan, Rel: 0}}),
		plan.New(&plan.Node{Kind: plan.IndexNestLoop, Rel: -1, JoinIDs: []int{1},
			Left: &plan.Node{Kind: plan.IndexNestLoop, Rel: -1, JoinIDs: []int{0},
				Left:  &plan.Node{Kind: plan.SeqScan, Rel: 0},
				Right: &plan.Node{Kind: plan.SeqScan, Rel: 1}},
			Right: &plan.Node{Kind: plan.SeqScan, Rel: 2}}),
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		at := cost.Location{
			math.Pow(10, -7*rng.Float64()),
			math.Pow(10, -7*rng.Float64()),
		}
		_, opt := o.Optimize(at)
		for i, h := range hand {
			if hc := m.Eval(h, at); hc < opt-1e-6 {
				t.Fatalf("hand plan %d cheaper at %v: %g < %g", i, at, hc, opt)
			}
		}
	}
}

func TestPlanDiversityAcrossESS(t *testing.T) {
	o := exampleOptimizer(t)
	seen := map[string]bool{}
	for _, x := range []float64{1e-8, 1e-6, 1e-4, 1e-2, 1} {
		for _, y := range []float64{1e-8, 1e-6, 1e-4, 1e-2, 1} {
			p, _ := o.Optimize(cost.Location{x, y})
			seen[p.Fingerprint()] = true
		}
	}
	if len(seen) < 2 {
		t.Errorf("POSP has %d plans over the ESS sample; expected diversity", len(seen))
	}
}

func TestOptimalCostSurfaceMonotone(t *testing.T) {
	// PCM for the *optimal* surface: Cost(Pq,q) nondecreasing along every
	// axis (follows from per-plan PCM and minimization).
	o := exampleOptimizer(t)
	sels := []float64{1e-8, 1e-6, 1e-4, 1e-2, 1}
	prev := -1.0
	for _, x := range sels {
		_, c := o.Optimize(cost.Location{x, 1e-4})
		if c < prev {
			t.Errorf("optimal cost decreased along x: %g after %g", c, prev)
		}
		prev = c
	}
	prev = -1.0
	for _, y := range sels {
		_, c := o.Optimize(cost.Location{1e-4, y})
		if c < prev {
			t.Errorf("optimal cost decreased along y: %g after %g", c, prev)
		}
		prev = c
	}
}

func TestDeterminism(t *testing.T) {
	o := exampleOptimizer(t)
	at := cost.Location{1e-3, 1e-3}
	p1, c1 := o.Optimize(at)
	p2, c2 := o.Optimize(at)
	if p1.Fingerprint() != p2.Fingerprint() || c1 != c2 {
		t.Errorf("non-deterministic: %q/%g vs %q/%g", p1.Fingerprint(), c1, p2.Fingerprint(), c2)
	}
}

func TestFourRelationChain(t *testing.T) {
	q := sqlmini.MustParse(testCatalog(), `
		SELECT * FROM part p, lineitem l, orders o, customer c
		WHERE p.p_partkey = l.l_partkey AND l.l_orderkey = o.o_orderkey
		AND o.o_custkey = c.c_custkey`)
	if err := q.MarkEPPs("p.p_partkey = l.l_partkey"); err != nil {
		t.Fatal(err)
	}
	m := cost.MustNewModel(q, cost.PostgresLike())
	o := MustNew(m)
	p, c := o.Optimize(cost.Location{1e-5})
	if got := relations(p); got != 0b1111 {
		t.Errorf("relations = %b", got)
	}
	if c <= 0 || math.IsInf(c, 0) || math.IsNaN(c) {
		t.Errorf("cost = %g", c)
	}
	// Every join predicate must be applied exactly once across the tree.
	applied := map[int]int{}
	p.Walk(func(n *plan.Node) {
		for _, id := range n.JoinIDs {
			applied[id]++
		}
	})
	for id := 0; id < 3; id++ {
		if applied[id] != 1 {
			t.Errorf("join %d applied %d times", id, applied[id])
		}
	}
}

func TestLocationDimensionMismatchPanics(t *testing.T) {
	o := exampleOptimizer(t)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on wrong location dimensionality")
		}
	}()
	o.Optimize(cost.Location{0.5})
}

func TestCommercialProfileChangesPlans(t *testing.T) {
	// The same query under a different platform profile may pick different
	// plans somewhere in the ESS — the premise of the paper's platform-
	// dependence critique. We only require the cost surfaces to differ.
	qp := sqlmini.MustParse(testCatalog(), `
		SELECT * FROM part p, lineitem l, orders o
		WHERE p.p_partkey = l.l_partkey AND l.l_orderkey = o.o_orderkey`)
	if err := qp.MarkEPPs("p.p_partkey = l.l_partkey", "l.l_orderkey = o.o_orderkey"); err != nil {
		t.Fatal(err)
	}
	opg := MustNew(cost.MustNewModel(qp, cost.PostgresLike()))
	ocm := MustNew(cost.MustNewModel(qp, cost.CommercialLike()))
	differs := false
	for _, x := range []float64{1e-6, 1e-3, 1} {
		for _, y := range []float64{1e-6, 1e-3, 1} {
			_, c1 := opg.Optimize(cost.Location{x, y})
			_, c2 := ocm.Optimize(cost.Location{x, y})
			if math.Abs(c1-c2) > 1e-6 {
				differs = true
			}
		}
	}
	if !differs {
		t.Error("profiles produce identical optimal cost surfaces")
	}
}

func TestOptimizeWithGroupBy(t *testing.T) {
	q := sqlmini.MustParse(testCatalog(), `
		SELECT * FROM part p, lineitem l, orders o
		WHERE p.p_partkey = l.l_partkey AND l.l_orderkey = o.o_orderkey
		GROUP BY p.p_retailprice`)
	if err := q.MarkEPPs("p.p_partkey = l.l_partkey", "l.l_orderkey = o.o_orderkey"); err != nil {
		t.Fatal(err)
	}
	m := cost.MustNewModel(q, cost.PostgresLike())
	o := MustNew(m)
	at := cost.Location{1e-4, 1e-4}
	p, c := o.Optimize(at)
	if p.Root.Kind != plan.Aggregate {
		t.Fatalf("root = %v, want Aggregate", p.Root.Kind)
	}
	// Cost must equal re-evaluation and exceed the join-only plan.
	if ev := m.Eval(p, at); math.Abs(ev-c)/c > 1e-9 {
		t.Errorf("cost %g != eval %g", c, ev)
	}
	inner := plan.New(p.Root.Left)
	if m.Eval(inner, at) >= c {
		t.Error("aggregate should add cost")
	}
	// Aggregated output is capped by the group estimate.
	tree := m.EvalTree(p, at)
	if tree[p.Root].Rows > tree[p.Root.Left].Rows {
		t.Error("aggregate output exceeds its input")
	}
	// Spill machinery still works: epps live below the aggregate.
	if _, _, ok := p.SpillTarget(q.EPPs, 0); !ok {
		t.Error("no spill target under the aggregate")
	}
}
