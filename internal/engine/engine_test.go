package engine

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/sqlmini"
)

func testModel(t *testing.T) *cost.Model {
	t.Helper()
	c := catalog.New("test")
	c.MustAddTable(&catalog.Table{
		Name: "part", Rows: 20000, RowBytes: 100,
		Columns: []catalog.Column{
			{Name: "p_partkey", Distinct: 20000, Min: 1, Max: 20000},
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
		},
	})
	q := sqlmini.MustParse(c, `
		SELECT * FROM part p, lineitem l, orders o
		WHERE p.p_partkey = l.l_partkey AND l.l_orderkey = o.o_orderkey`)
	if err := q.MarkEPPs("p.p_partkey = l.l_partkey", "l.l_orderkey = o.o_orderkey"); err != nil {
		t.Fatal(err)
	}
	return cost.MustNewModel(q, cost.PostgresLike())
}

func optimalPlanAt(t *testing.T, m *cost.Model, at cost.Location) (*plan.Plan, float64) {
	t.Helper()
	o := optimizer.MustNew(m)
	return o.Optimize(at)
}

func TestExecuteWithinBudget(t *testing.T) {
	m := testModel(t)
	truth := cost.Location{1e-4, 1e-4}
	e := New(m, truth)
	p, c := optimalPlanAt(t, m, truth)
	res := e.Execute(p, c*1.01)
	if !res.Completed {
		t.Fatal("execution within budget should complete")
	}
	if math.Abs(res.Spent-c)/c > 1e-9 {
		t.Errorf("Spent = %g, want full cost %g", res.Spent, c)
	}
}

func TestExecuteBudgetExpiry(t *testing.T) {
	m := testModel(t)
	truth := cost.Location{1e-2, 1e-2}
	e := New(m, truth)
	p, c := optimalPlanAt(t, m, truth)
	res := e.Execute(p, c/10)
	if res.Completed {
		t.Fatal("execution over budget should abort")
	}
	if res.Spent != c/10 {
		t.Errorf("Spent = %g, want exactly the budget %g", res.Spent, c/10)
	}
}

func TestExecuteSpillCompletes(t *testing.T) {
	m := testModel(t)
	truth := cost.Location{1e-5, 1e-5}
	e := New(m, truth)
	p, c := optimalPlanAt(t, m, truth)
	// A budget covering the whole plan certainly covers any subtree.
	res, ok := e.ExecuteSpill(p, 0, c)
	if !ok {
		t.Fatal("plan should contain epp 0")
	}
	if !res.Completed {
		t.Fatal("spill within budget should complete")
	}
	if res.Learned != truth[0] {
		t.Errorf("Learned = %g, want exact truth %g", res.Learned, truth[0])
	}
	if res.Spent > c {
		t.Errorf("subtree spent %g exceeds full plan cost %g", res.Spent, c)
	}
}

// TestSpillHalfSpacePruning verifies Lemma 3.1: executing P in spill-mode on
// the predicate chosen by spill-node identification, with budget Cost(P, q),
// either learns the exact selectivity or proves q_a.j > q.j. The lemma
// relies on the spill target being the first unlearned epp in the total
// order, so that its subtree contains no other unlearned epp — spilling on
// a downstream epp carries no such guarantee, which is precisely why the
// identification procedure exists.
func TestSpillHalfSpacePruning(t *testing.T) {
	m := testModel(t)
	rng := rand.New(rand.NewSource(11))
	o := optimizer.MustNew(m)
	epps := m.Query.EPPs
	for trial := 0; trial < 60; trial++ {
		q := cost.Location{math.Pow(10, -6*rng.Float64()), math.Pow(10, -6*rng.Float64())}
		truth := cost.Location{math.Pow(10, -6*rng.Float64()), math.Pow(10, -6*rng.Float64())}
		p, budget := o.Optimize(q)
		tgt, dim, ok := p.SpillTarget(epps, 0)
		if !ok {
			t.Fatal("optimal plan has no spillable epp")
		}
		if d, isEPP := m.Query.IsEPP(tgt.JoinID); !isEPP || d != dim {
			t.Fatalf("spill target %d is not the epp of dimension %d", tgt.JoinID, dim)
		}
		e := New(m, truth)
		res, ok := e.ExecuteSpill(p, dim, budget)
		if !ok {
			t.Fatal("spill on identified target must be possible")
		}
		if res.Completed {
			if res.Learned != truth[dim] {
				t.Fatalf("completed spill learned %g, truth %g", res.Learned, truth[dim])
			}
			continue
		}
		// Not completed: monitoring bound must be a valid lower bound and
		// at least q's coordinate (half-space pruning).
		if res.Learned >= truth[dim] {
			t.Fatalf("bound %g not strictly below truth %g", res.Learned, truth[dim])
		}
		if res.Learned < q[dim]-1e-9 {
			t.Fatalf("trial %d dim %d: bound %g below contour coordinate %g (Lemma 3.1 violated)",
				trial, dim, res.Learned, q[dim])
		}
	}
}

func TestSpillMonitoringTightness(t *testing.T) {
	m := testModel(t)
	truth := cost.Location{1e-1, 1e-1}
	e := New(m, truth)
	p, _ := optimalPlanAt(t, m, truth)
	// Find the subtree's full cost, then give half of it: the bound should
	// be strictly between 0 and the truth, and the subtree cost at the
	// bound should be within a hair of the budget.
	full, ok := e.ExecuteSpill(p, 0, math.Inf(1))
	if !ok || !full.Completed {
		t.Fatal("setup failed")
	}
	budget := full.Spent / 2
	res, _ := e.ExecuteSpill(p, 0, budget)
	if res.Completed {
		t.Fatal("half budget should not complete")
	}
	if res.Learned <= 0 || res.Learned >= truth[0] {
		t.Fatalf("bound %g outside (0, %g)", res.Learned, truth[0])
	}
	joinID := m.Query.EPPs[0]
	sub := p.Subtree(joinID)
	probe := truth.Clone()
	probe[0] = res.Learned
	c := m.Eval(sub, probe)
	if c > budget*(1+1e-6) {
		t.Errorf("cost at bound %g exceeds budget %g", c, budget)
	}
}

func TestExecuteSpillMissingPredicate(t *testing.T) {
	m := testModel(t)
	e := New(m, cost.Location{1e-4, 1e-4})
	// A plan over only part ⋈ lineitem has no node for epp 1.
	sub := plan.New(&plan.Node{Kind: plan.HashJoin, Rel: -1, JoinIDs: []int{0},
		Left:  &plan.Node{Kind: plan.SeqScan, Rel: 0},
		Right: &plan.Node{Kind: plan.SeqScan, Rel: 1},
	})
	if _, ok := e.ExecuteSpill(sub, 1, 1000); ok {
		t.Error("spill on absent predicate should report !ok")
	}
}

func TestNewPanicsOnDimMismatch(t *testing.T) {
	m := testModel(t)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(m, cost.Location{0.5})
}
