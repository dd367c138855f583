package rowexec

import (
	"context"
	"math"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/sqlmini"
)

// smallCatalog is sized so row-at-a-time execution is instant.
func smallCatalog() *catalog.Catalog {
	c := catalog.New("small")
	c.MustAddTable(&catalog.Table{
		Name: "part", Rows: 400, RowBytes: 100,
		Columns: []catalog.Column{
			{Name: "p_partkey", Distinct: 400, Min: 1, Max: 400},
			{Name: "p_price", Distinct: 100, Min: 0, Max: 1000},
		},
	})
	c.MustAddTable(&catalog.Table{
		Name: "lineitem", Rows: 4000, RowBytes: 120,
		Columns: []catalog.Column{
			{Name: "l_partkey", Distinct: 400, Min: 1, Max: 400},
			{Name: "l_orderkey", Distinct: 1000, Min: 1, Max: 1000},
		},
	})
	c.MustAddTable(&catalog.Table{
		Name: "orders", Rows: 1000, RowBytes: 80,
		Columns: []catalog.Column{
			{Name: "o_orderkey", Distinct: 1000, Min: 1, Max: 1000},
		},
	})
	return c
}

func smallEngine(t *testing.T) (*Engine, *cost.Model) {
	t.Helper()
	q := sqlmini.MustParse(smallCatalog(), `
		SELECT * FROM part p, lineitem l, orders o
		WHERE p.p_partkey = l.l_partkey AND l.l_orderkey = o.o_orderkey
		AND p.p_price < 600`)
	if err := q.MarkEPPs("p.p_partkey = l.l_partkey", "l.l_orderkey = o.o_orderkey"); err != nil {
		t.Fatal(err)
	}
	m := cost.MustNewModel(q, cost.PostgresLike())
	return &Engine{Query: q, Params: cost.PostgresLike()}, m
}

func leftDeepHJ() *plan.Plan {
	return plan.New(&plan.Node{Kind: plan.HashJoin, Rel: -1, JoinIDs: []int{1},
		Left: &plan.Node{Kind: plan.HashJoin, Rel: -1, JoinIDs: []int{0},
			Left:  &plan.Node{Kind: plan.SeqScan, Rel: 0},
			Right: &plan.Node{Kind: plan.SeqScan, Rel: 1}},
		Right: &plan.Node{Kind: plan.SeqScan, Rel: 2}})
}

// TestCardinalitiesMatchModel is the grounding test: executing a plan over
// the synthetic rows must produce per-operator cardinalities close to the
// cost model's predictions at the data's true selectivities (1/NDV for the
// nested join domains, the filter fraction for the range predicate).
func TestCardinalitiesMatchModel(t *testing.T) {
	e, m := smallEngine(t)
	p := leftDeepHJ()
	truth := cost.Location{1.0 / 400, 1.0 / 1000} // the data's emergent selectivities
	res, err := e.Run(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("unbudgeted run did not complete")
	}
	tree := m.EvalTree(p, truth)
	check := func(n *plan.Node, name string) {
		want := tree[n].Rows
		got := float64(res.Stats[n].OutRows)
		if math.Abs(got-want) > 0.25*want+3 {
			t.Errorf("%s: measured %g rows, model predicts %g", name, got, want)
		}
	}
	check(p.Root.Left.Left, "scan(part σ price<600)")
	check(p.Root.Left.Right, "scan(lineitem)")
	check(p.Root.Left, "part⋈lineitem")
	check(p.Root, "⋈orders")
}

// TestSpendTracksModelCost verifies the work meter: unbudgeted execution
// spend should be within a modest factor of the model's cost prediction.
func TestSpendTracksModelCost(t *testing.T) {
	e, m := smallEngine(t)
	p := leftDeepHJ()
	truth := cost.Location{1.0 / 400, 1.0 / 1000}
	res, err := e.Run(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	modeled := m.Eval(p, truth)
	if res.Spent < modeled/3 || res.Spent > modeled*3 {
		t.Errorf("measured spend %.1f vs modeled %.1f (out of 3x band)", res.Spent, modeled)
	}
}

func TestBudgetTermination(t *testing.T) {
	e, _ := smallEngine(t)
	p := leftDeepHJ()
	full, err := e.Run(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(p, full.Spent/4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Fatal("quarter budget should not complete")
	}
	if math.Abs(res.Spent-full.Spent/4) > 1e-6 {
		t.Errorf("aborted spend %.3f != budget %.3f", res.Spent, full.Spent/4)
	}
	// Forced termination discards results: fewer output rows than the
	// complete run.
	if res.OutRows >= full.OutRows && full.OutRows > 0 {
		t.Errorf("aborted run produced %d rows, full run %d", res.OutRows, full.OutRows)
	}
}

// TestSpillRunMonitorsSelectivity: spill-mode execution of the epp subtree
// yields an observed selectivity matching the data's 1/NDV ground truth.
func TestSpillRunMonitorsSelectivity(t *testing.T) {
	e, _ := smallEngine(t)
	p := leftDeepHJ()
	res, st, err := e.SpillRunContext(context.Background(), p, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("unbudgeted spill did not complete")
	}
	sel := ObservedSelectivity(st)
	want := 1.0 / 400
	if sel < want/2 || sel > want*2 {
		t.Errorf("observed selectivity %g, want ≈%g", sel, want)
	}
	// Spilling must cost no more than the full plan: the downstream join
	// is never executed.
	fullRun, _ := e.Run(p, 0)
	if res.Spent > fullRun.Spent {
		t.Errorf("spill spend %.1f exceeds full run %.1f", res.Spent, fullRun.Spent)
	}
	// Spilling on a predicate the plan does not apply fails cleanly.
	sub := plan.New(&plan.Node{Kind: plan.SeqScan, Rel: 0})
	if _, _, err := e.SpillRunContext(context.Background(), sub, 1, 0); err == nil {
		t.Error("spill on absent predicate should error")
	}
}

// TestOperatorsAgree: hash, merge and (index) nested-loop joins must
// produce identical result cardinalities for the same logical join.
func TestOperatorsAgree(t *testing.T) {
	e, _ := smallEngine(t)
	mk := func(kind plan.OpKind) *plan.Plan {
		l := &plan.Node{Kind: plan.SeqScan, Rel: 0}
		r := &plan.Node{Kind: plan.SeqScan, Rel: 1}
		var root *plan.Node
		switch kind {
		case plan.MergeJoin:
			root = &plan.Node{Kind: plan.MergeJoin, Rel: -1, JoinIDs: []int{0},
				Left:  &plan.Node{Kind: plan.Sort, Rel: -1, Left: l},
				Right: &plan.Node{Kind: plan.Sort, Rel: -1, Left: r}}
		default:
			root = &plan.Node{Kind: kind, Rel: -1, JoinIDs: []int{0}, Left: l, Right: r}
		}
		return plan.New(root)
	}
	var counts []int64
	for _, kind := range []plan.OpKind{plan.HashJoin, plan.MergeJoin, plan.NestLoop, plan.IndexNestLoop} {
		res, err := e.Run(mk(kind), 0)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		counts = append(counts, res.OutRows)
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] != counts[0] {
			t.Fatalf("operator cardinality disagreement: %v", counts)
		}
	}
	if counts[0] == 0 {
		t.Fatal("join produced no rows; generator domains broken")
	}
}

// TestOptimalPlanExecutes: plans straight from the optimizer must run on
// the row engine.
func TestOptimalPlanExecutes(t *testing.T) {
	e, m := smallEngine(t)
	o := optimizer.MustNew(m)
	truth := cost.Location{1.0 / 400, 1.0 / 1000}
	p, _ := o.Optimize(truth)
	res, err := e.Run(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("optimal plan did not complete")
	}
}

func TestRowCap(t *testing.T) {
	e, _ := smallEngine(t)
	e.RowCap = 50
	p := plan.New(&plan.Node{Kind: plan.SeqScan, Rel: 1})
	res, err := e.Run(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats[p.Root].LeftRows != 50 {
		t.Errorf("scanned %d rows, cap is 50", res.Stats[p.Root].LeftRows)
	}
}

func TestColumnValueProperties(t *testing.T) {
	col := catalog.Column{Name: "c", Distinct: 37, Min: 0, Max: 100}
	seen := map[Value]bool{}
	for row := int64(0); row < 5000; row++ {
		v := ColumnValue(col, row)
		if v < 1 || v > 37 {
			t.Fatalf("value %d outside 1..37", v)
		}
		seen[v] = true
		if ColumnValue(col, row) != v {
			t.Fatal("not deterministic")
		}
	}
	if len(seen) != 37 {
		t.Errorf("saw %d distinct values, want 37", len(seen))
	}
	if NormalizedValue(col, 1) != 0 || NormalizedValue(col, 37) != 100 {
		t.Errorf("normalization endpoints wrong: %g, %g",
			NormalizedValue(col, 1), NormalizedValue(col, 37))
	}
	one := catalog.Column{Name: "k", Distinct: 1, Min: 5, Max: 9}
	if NormalizedValue(one, 1) != 5 {
		t.Error("single-value column should normalize to Min")
	}
}

func TestObservedSelectivityEdge(t *testing.T) {
	if ObservedSelectivity(nil) != 0 {
		t.Error("nil stats should give 0")
	}
	if ObservedSelectivity(&NodeStats{OutRows: 5}) != 0 {
		t.Error("zero inputs should give 0")
	}
}

func TestAggregateOnRows(t *testing.T) {
	q := sqlmini.MustParse(smallCatalog(), `
		SELECT * FROM part p, lineitem l
		WHERE p.p_partkey = l.l_partkey
		GROUP BY p.p_price`)
	if err := q.MarkEPPs("p.p_partkey = l.l_partkey"); err != nil {
		t.Fatal(err)
	}
	m := cost.MustNewModel(q, cost.PostgresLike())
	o := optimizer.MustNew(m)
	truth := cost.Location{1.0 / 400}
	p, _ := o.Optimize(truth)
	if p.Root.Kind != plan.Aggregate {
		t.Fatalf("root = %v", p.Root.Kind)
	}
	e := &Engine{Query: q, Params: cost.PostgresLike()}
	res, err := e.Run(p, 0)
	if err != nil || !res.Completed {
		t.Fatalf("run: %v %+v", err, res)
	}
	// Groups are bounded by the column's NDV (100 price values) and by the
	// join output.
	if res.OutRows < 1 || res.OutRows > 100 {
		t.Errorf("groups = %d, want within (0,100]", res.OutRows)
	}
	if res.OutRows >= res.Stats[p.Root].LeftRows {
		t.Errorf("aggregation did not reduce: %d groups from %d rows",
			res.OutRows, res.Stats[p.Root].LeftRows)
	}
	// Model predicts group count in the same ballpark.
	tree := m.EvalTree(p, truth)
	want := tree[p.Root].Rows
	if got := float64(res.OutRows); got < want/2 || got > want*2 {
		t.Errorf("measured %g groups, model predicts %g", got, want)
	}
}

func TestFilterHoldsAllOps(t *testing.T) {
	mk := func(op query.FilterOp, args ...float64) query.Filter {
		return query.Filter{Op: op, Args: args}
	}
	cases := []struct {
		f    query.Filter
		v    float64
		want bool
	}{
		{mk(query.OpEq, 5), 5, true},
		{mk(query.OpEq, 5), 6, false},
		{mk(query.OpNe, 5), 6, true},
		{mk(query.OpLt, 5), 4, true},
		{mk(query.OpLe, 5), 5, true},
		{mk(query.OpGt, 5), 6, true},
		{mk(query.OpGe, 5), 5, true},
		{mk(query.OpBetween, 2, 8), 5, true},
		{mk(query.OpBetween, 2, 8), 9, false},
		{mk(query.OpIn, 1, 5, 9), 5, true},
		{mk(query.OpIn, 1, 5, 9), 4, false},
		{query.Filter{Op: query.FilterOp(99)}, 1, false},
	}
	for _, tc := range cases {
		if got := filterHolds(tc.f, tc.v); got != tc.want {
			t.Errorf("filterHolds(%v %v, %g) = %v", tc.f.Op, tc.f.Args, tc.v, got)
		}
	}
}

func TestColumnValueSkewed(t *testing.T) {
	uniform := catalog.Column{Name: "u", Distinct: 100, Min: 0, Max: 100}
	skewed := catalog.Column{Name: "u", Distinct: 100, Min: 0, Max: 100, Skew: 3}
	const rows = 20000
	countLow := func(col catalog.Column) int {
		n := 0
		for r := int64(0); r < rows; r++ {
			v := ColumnValue(col, r)
			if v < 1 || v > 100 {
				t.Fatalf("value %d outside domain", v)
			}
			if v <= 10 {
				n++
			}
		}
		return n
	}
	lu, ls := countLow(uniform), countLow(skewed)
	// Uniform: ~10% below 10; skewed: the heavy-hitter mass concentrates
	// there.
	if lu < rows/20 || lu > rows/5 {
		t.Errorf("uniform low-mass %d out of expected band", lu)
	}
	if ls < 3*lu {
		t.Errorf("skewed low-mass %d not concentrated (uniform %d)", ls, lu)
	}
}

func TestAdapterPartialSpillLearning(t *testing.T) {
	e, _ := smallEngine(t)
	a := &Adapter{E: e}
	// Find the full spill cost, then give half: learning must report a
	// conservative positive bound below the ground truth.
	full, ok, err := a.ExecuteSpillCtx(context.Background(), leftDeepHJ(), 0, 1e12)
	if err != nil || !ok || !full.Completed {
		t.Fatal("setup failed")
	}
	res, ok, err := a.ExecuteSpillCtx(context.Background(), leftDeepHJ(), 0, full.Spent/2)
	if err != nil || !ok {
		t.Fatal("spill rejected")
	}
	if res.Completed {
		t.Fatal("half budget should not complete")
	}
	truth := 1.0 / 400
	if res.Learned < 0 || res.Learned > truth*1.5 {
		t.Errorf("partial learned %g outside [0, ~%g]", res.Learned, truth)
	}
	if res.Spent != full.Spent/2 {
		t.Errorf("spent %g != budget", res.Spent)
	}
}

func TestAdapterExecute(t *testing.T) {
	e, _ := smallEngine(t)
	a := &Adapter{E: e}
	p := leftDeepHJ()
	full, err := a.ExecuteCtx(context.Background(), p, 1e12)
	if err != nil || !full.Completed {
		t.Fatal("unbudgeted adapter run failed")
	}
	part, err := a.ExecuteCtx(context.Background(), p, full.Spent/3)
	if err != nil || part.Completed || part.Spent != full.Spent/3 {
		t.Errorf("budgeted adapter run: %+v", part)
	}
}
