package cost

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/catalog"
	"repro/internal/plan"
	"repro/internal/query"
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
		},
	})
	return c
}

// exampleQuery mirrors the paper's EQ (Fig. 1) with both joins error-prone.
func exampleModel(t *testing.T) *Model {
	t.Helper()
	q := sqlmini.MustParse(testCatalog(), `
		SELECT * FROM part p, lineitem l, orders o
		WHERE p.p_partkey = l.l_partkey AND l.l_orderkey = o.o_orderkey
		AND p.p_retailprice < 1000`)
	if err := q.MarkEPPs("p.p_partkey = l.l_partkey", "l.l_orderkey = o.o_orderkey"); err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(q, PostgresLike())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// leftDeepHJ builds HJ[j1]( HJ[j0](Scan p, Scan l), Scan o ).
func leftDeepHJ() *plan.Plan {
	hj0 := &plan.Node{Kind: plan.HashJoin, Rel: -1, JoinIDs: []int{0},
		Left:  &plan.Node{Kind: plan.SeqScan, Rel: 0},
		Right: &plan.Node{Kind: plan.SeqScan, Rel: 1},
	}
	hj1 := &plan.Node{Kind: plan.HashJoin, Rel: -1, JoinIDs: []int{1},
		Left:  hj0,
		Right: &plan.Node{Kind: plan.SeqScan, Rel: 2},
	}
	return plan.New(hj1)
}

func TestBaseRowsApplyFilters(t *testing.T) {
	m := exampleModel(t)
	// part has 20000 rows and a < 1000 filter over [0,2000]: sel 0.5.
	if got := m.baseRows[0]; math.Abs(got-10000) > 1 {
		t.Errorf("baseRows[part] = %g, want 10000", got)
	}
	if got := m.baseRows[1]; got != 600000 {
		t.Errorf("baseRows[lineitem] = %g, want 600000", got)
	}
}

func TestSelectivityInjection(t *testing.T) {
	m := exampleModel(t)
	at := Location{0.25, 0.5}
	if got := m.Selectivity(0, at); got != 0.25 {
		t.Errorf("Selectivity(epp0) = %g, want injected 0.25", got)
	}
	if got := m.Selectivity(1, at); got != 0.5 {
		t.Errorf("Selectivity(epp1) = %g, want injected 0.5", got)
	}
}

func TestDefaultSelectivityFromNDV(t *testing.T) {
	m := exampleModel(t)
	if got := m.joinSel[0]; math.Abs(got-1.0/20000) > 1e-12 {
		t.Errorf("joinSel[j0] = %g, want 1/20000", got)
	}
	est := m.EstimateLocation()
	if len(est) != 2 || est[0] != m.joinSel[0] || est[1] != m.joinSel[1] {
		t.Errorf("EstimateLocation = %v", est)
	}
}

func TestEvalCardinalityPropagation(t *testing.T) {
	m := exampleModel(t)
	p := leftDeepHJ()
	at := Location{1e-4, 1e-5}
	tree := m.EvalTree(p, at)
	hj0 := p.Root.Left
	// out(hj0) = 10000 * 600000 * 1e-4 = 600000.
	if got := tree[hj0].Rows; math.Abs(got-600000) > 1 {
		t.Errorf("hj0 rows = %g, want 600000", got)
	}
	// out(root) = 600000 * 150000 * 1e-5 = 900000.
	if got := tree[p.Root].Rows; math.Abs(got-900000) > 1 {
		t.Errorf("root rows = %g, want 900000", got)
	}
	if tree[p.Root].Total <= tree[hj0].Total {
		t.Error("root total should exceed child total")
	}
	if got := m.Eval(p, at); got != tree[p.Root].Total {
		t.Errorf("Eval = %g, EvalTree root total = %g", got, tree[p.Root].Total)
	}
}

// TestPCM is the property test for Plan Cost Monotonicity (paper Eq. 5):
// for any plan shape and any pair of locations with q_b ≻ q_c, the plan
// must not be cheaper at q_b.
func TestPCM(t *testing.T) {
	m := exampleModel(t)
	plans := []*plan.Plan{leftDeepHJ(), rightDeepMix(), inlPlan()}
	rng := rand.New(rand.NewSource(42))
	f := func(a0, a1, b0, b1 float64) bool {
		lo := Location{math.Min(a0, b0), math.Min(a1, b1)}
		hi := Location{math.Max(a0, b0), math.Max(a1, b1)}
		for _, p := range plans {
			if m.Eval(p, hi) < m.Eval(p, lo)-1e-9 {
				t.Logf("PCM violated: plan %s, lo=%v hi=%v", p.Fingerprint(), lo, hi)
				return false
			}
		}
		return true
	}
	for i := 0; i < 500; i++ {
		gen := func() float64 { return math.Pow(10, -6*rng.Float64()) }
		if !f(gen(), gen(), gen(), gen()) {
			t.Fatal("PCM property failed")
		}
	}
}

// TestPCMQuick re-checks the monotonicity property with testing/quick's own
// generator over the unit square.
func TestPCMQuick(t *testing.T) {
	m := exampleModel(t)
	p := leftDeepHJ()
	prop := func(x, y, dx, dy uint16) bool {
		lo := Location{
			math.Max(1e-6, float64(x)/65535),
			math.Max(1e-6, float64(y)/65535),
		}
		hi := Location{
			math.Min(1, lo[0]+float64(dx)/65535),
			math.Min(1, lo[1]+float64(dy)/65535),
		}
		return m.Eval(p, hi) >= m.Eval(p, lo)-1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// rightDeepMix builds MJ[j1]( Sort(Scan o), Sort(HJ[j0](Scan l, Scan p)) ).
func rightDeepMix() *plan.Plan {
	hj0 := &plan.Node{Kind: plan.HashJoin, Rel: -1, JoinIDs: []int{0},
		Left:  &plan.Node{Kind: plan.SeqScan, Rel: 1},
		Right: &plan.Node{Kind: plan.SeqScan, Rel: 0},
	}
	mj := &plan.Node{Kind: plan.MergeJoin, Rel: -1, JoinIDs: []int{1},
		Left:  &plan.Node{Kind: plan.Sort, Rel: -1, Left: &plan.Node{Kind: plan.SeqScan, Rel: 2}},
		Right: &plan.Node{Kind: plan.Sort, Rel: -1, Left: hj0},
	}
	return plan.New(mj)
}

// inlPlan builds INL[j1]( HJ[j0](Scan p, Scan l), Scan o ).
func inlPlan() *plan.Plan {
	hj := &plan.Node{Kind: plan.HashJoin, Rel: -1, JoinIDs: []int{0},
		Left:  &plan.Node{Kind: plan.SeqScan, Rel: 0},
		Right: &plan.Node{Kind: plan.SeqScan, Rel: 1},
	}
	inl := &plan.Node{Kind: plan.IndexNestLoop, Rel: -1, JoinIDs: []int{1},
		Left:  hj,
		Right: &plan.Node{Kind: plan.SeqScan, Rel: 2},
	}
	return plan.New(inl)
}

func TestIndexNestLoopTradeoff(t *testing.T) {
	m := exampleModel(t)
	inl := inlPlan()
	hj := leftDeepHJ()
	// At tiny selectivities the INL plan avoids scanning orders and wins;
	// at sel=1 it pays a random fetch per matched row and loses badly.
	lo := Location{1e-8, 1e-8}
	hi := Location{1e-2, 1e-1}
	if m.Eval(inl, lo) >= m.Eval(hj, lo) {
		t.Errorf("at %v INL (%.0f) should beat HJ (%.0f)", lo, m.Eval(inl, lo), m.Eval(hj, lo))
	}
	if m.Eval(inl, hi) <= m.Eval(hj, hi) {
		t.Errorf("at %v HJ (%.0f) should beat INL (%.0f)", hi, m.Eval(hj, hi), m.Eval(inl, hi))
	}
}

func TestLocationOps(t *testing.T) {
	a := Location{0.5, 0.5}
	b := Location{0.5, 0.4}
	if !a.Dominates(b) || b.Dominates(a) {
		t.Error("Dominates misbehaves")
	}
	cl := a.Clone()
	cl[0] = 0.9
	if a[0] != 0.5 {
		t.Error("Clone aliases the original")
	}
	if s := a.String(); !strings.Contains(s, "0.5") {
		t.Errorf("String = %q", s)
	}
}

func TestFilterSelectivity(t *testing.T) {
	tab := &catalog.Table{Name: "t", Rows: 100, RowBytes: 8, Columns: []catalog.Column{
		{Name: "c", Distinct: 10, Min: 0, Max: 100},
	}}
	cat := catalog.New("x")
	if err := cat.AddTable(tab); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		op   query.FilterOp
		args []float64
		want float64
	}{
		{query.OpEq, []float64{5}, 0.1},
		{query.OpNe, []float64{5}, 0.9},
		{query.OpLt, []float64{25}, 0.25},
		{query.OpGe, []float64{25}, 0.75},
		{query.OpBetween, []float64{10, 60}, 0.5},
		{query.OpIn, []float64{1, 2, 3}, 0.3},
	}
	for _, tc := range cases {
		f := query.Filter{Col: query.ColumnRef{Alias: "t", Column: "c"}, Op: tc.op, Args: tc.args}
		got, err := FilterSelectivity(tab, f)
		if err != nil {
			t.Errorf("%v: %v", tc.op, err)
			continue
		}
		if math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("%v%v sel = %g, want %g", tc.op, tc.args, got, tc.want)
		}
	}
	// Out-of-range BETWEEN clamps to the floor, not negative.
	f := query.Filter{Col: query.ColumnRef{Alias: "t", Column: "c"}, Op: query.OpBetween, Args: []float64{200, 300}}
	got, err := FilterSelectivity(tab, f)
	if err != nil || got <= 0 || got > 1e-6 {
		t.Errorf("out-of-range BETWEEN sel = %g, %v", got, err)
	}
}

func TestProfilesDiffer(t *testing.T) {
	pg, com := PostgresLike(), CommercialLike()
	if pg.Name == com.Name {
		t.Error("profiles share a name")
	}
	if pg.IndexProbeCost == com.IndexProbeCost && pg.SortCmpCost == com.SortCmpCost {
		t.Error("profiles should differ in operator constants")
	}
}

func TestJoinRowsFloor(t *testing.T) {
	m := exampleModel(t)
	p := leftDeepHJ()
	// Absurdly small selectivities must not drive cardinalities below 1.
	rows := m.EvalTree(p, Location{1e-30, 1e-30})[p.Root].Rows
	if rows < 1 {
		t.Errorf("rows = %g, want >= 1", rows)
	}
}

func TestSpillIOKicksIn(t *testing.T) {
	m := exampleModel(t)
	small := m.spillIO(100)
	big := m.spillIO(m.Params.WorkMemRows * 4)
	if small != 0 {
		t.Errorf("spillIO(small) = %g, want 0", small)
	}
	if big <= 0 {
		t.Errorf("spillIO(big) = %g, want > 0", big)
	}
}

func TestAggNC(t *testing.T) {
	q := sqlmini.MustParse(testCatalog(), `
		SELECT * FROM part p, lineitem l
		WHERE p.p_partkey = l.l_partkey
		GROUP BY p.p_retailprice`)
	if err := q.MarkEPPs("p.p_partkey = l.l_partkey"); err != nil {
		t.Fatal(err)
	}
	m := MustNewModel(q, PostgresLike())
	in := NodeCost{Rows: 1e6, Self: 100, Total: 1000}
	out := m.AggNC(in)
	// Group estimate is p_retailprice's NDV (1000), capped below input.
	if out.Rows != 1000 {
		t.Errorf("agg rows = %g, want 1000", out.Rows)
	}
	if out.Total <= in.Total || out.Self <= 0 {
		t.Errorf("agg cost not additive: %+v", out)
	}
	// Tiny input: output capped by input rows, floored at 1.
	small := m.AggNC(NodeCost{Rows: 3})
	if small.Rows != 3 {
		t.Errorf("small agg rows = %g", small.Rows)
	}
	zero := m.AggNC(NodeCost{Rows: 0})
	if zero.Rows != 1 {
		t.Errorf("zero agg rows = %g, want floor 1", zero.Rows)
	}
	// Spilling input pays extra I/O.
	big := m.AggNC(NodeCost{Rows: m.Params.WorkMemRows * 2})
	noSpill := m.AggNC(NodeCost{Rows: m.Params.WorkMemRows})
	if big.Self <= 2*noSpill.Self {
		t.Errorf("agg spill I/O missing: %g vs %g", big.Self, noSpill.Self)
	}
	// Aggregate plans evaluate through the tree path too.
	o := mustOptimizer(t, m)
	p, c := o.Optimize(Location{1e-4})
	if ev := m.Eval(p, Location{1e-4}); math.Abs(ev-c)/c > 1e-9 {
		t.Errorf("agg plan eval mismatch: %g vs %g", ev, c)
	}
}

func mustOptimizer(t *testing.T, m *Model) interface {
	Optimize(Location) (*plan.Plan, float64)
} {
	t.Helper()
	return optimizerShim{m}
}

// optimizerShim avoids an import cycle in tests: it mirrors the DP
// optimizer's contract using exhaustive two-relation enumeration (the test
// query joins exactly two relations).
type optimizerShim struct{ m *Model }

func (s optimizerShim) Optimize(at Location) (*plan.Plan, float64) {
	best := (*plan.Plan)(nil)
	bestC := math.Inf(1)
	for _, root := range []*plan.Node{
		{Kind: plan.HashJoin, Rel: -1, JoinIDs: []int{0},
			Left:  &plan.Node{Kind: plan.SeqScan, Rel: 0},
			Right: &plan.Node{Kind: plan.SeqScan, Rel: 1}},
		{Kind: plan.HashJoin, Rel: -1, JoinIDs: []int{0},
			Left:  &plan.Node{Kind: plan.SeqScan, Rel: 1},
			Right: &plan.Node{Kind: plan.SeqScan, Rel: 0}},
	} {
		wrapped := plan.New(&plan.Node{Kind: plan.Aggregate, Rel: -1, Left: root})
		if c := s.m.Eval(wrapped, at); c < bestC {
			best, bestC = wrapped, c
		}
	}
	return best, bestC
}

func TestSelectivityDefaultPath(t *testing.T) {
	m := exampleModel(t)
	// Join 0 and 1 are epps; a synthetic non-epp id hits the default path.
	q := m.Query
	if len(q.Joins) < 2 {
		t.Skip("needs two joins")
	}
	// Temporarily unmark epp 1.
	saved := q.EPPs
	q.EPPs = saved[:1]
	m2 := MustNewModel(q, PostgresLike())
	q.EPPs = saved
	got := m2.Selectivity(1, Location{0.5})
	if got != m2.joinSel[1] {
		t.Errorf("non-epp selectivity %g != default %g", got, m2.joinSel[1])
	}
}

func TestNewModelErrors(t *testing.T) {
	m := exampleModel(t)
	q := *m.Query
	q.Joins = append([]query.Join(nil), m.Query.Joins...)
	q.Joins[0].Left.Column = "gone"
	if _, err := NewModel(&q, PostgresLike()); err == nil {
		t.Error("missing join column should error")
	}
}

func TestClampHelpers(t *testing.T) {
	if clamp01(-1) != 0 || clamp01(2) != 1 || clamp01(0.3) != 0.3 {
		t.Error("clamp01 misbehaves")
	}
	if clamp01At(0, 1e-9) != 1e-9 || clamp01At(5, 1e-9) != 1 {
		t.Error("clamp01At misbehaves")
	}
}
