package native

import (
	"context"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/ess"
	"repro/internal/sqlmini"
)

func buildSpace(t *testing.T, res int) *ess.Space {
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
	m := cost.MustNewModel(q, cost.PostgresLike())
	s, err := ess.BuildParallelContext(context.Background(), m, ess.NewGrid(2, res, 1e-6), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestMSOExceedsRobustAlgorithms(t *testing.T) {
	s := buildSpace(t, 10)
	mso := MSO(s, 1)
	if mso < 1 {
		t.Fatalf("native MSO = %g", mso)
	}
	// The whole point of the paper: the native optimizer's worst case is
	// far beyond SpillBound's D²+3D = 10 on selectivity-trap workloads.
	if mso <= 10 {
		t.Logf("note: native MSO %g unexpectedly tame on this toy query", mso)
	}
	// Subsampled MSO is a lower bound on exhaustive MSO.
	if sub := MSO(s, 3); sub > mso+1e-9 {
		t.Errorf("stride-3 MSO %g exceeds exhaustive %g", sub, mso)
	}
	// Stride < 1 is clamped.
	if MSO(s, 0) != mso {
		t.Error("MSO(0) should behave as stride 1")
	}
}
