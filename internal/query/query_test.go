package query

import (
	"strings"
	"testing"

	"repro/internal/catalog"
)

func twoTables(t *testing.T) (*catalog.Table, *catalog.Table) {
	t.Helper()
	a := &catalog.Table{Name: "a", Rows: 10, RowBytes: 8, Columns: []catalog.Column{
		{Name: "x", Distinct: 10}, {Name: "k", Distinct: 10},
	}}
	b := &catalog.Table{Name: "b", Rows: 20, RowBytes: 8, Columns: []catalog.Column{
		{Name: "y", Distinct: 20}, {Name: "k", Distinct: 20},
	}}
	c := catalog.New("t")
	if err := c.AddTable(a); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTable(b); err != nil {
		t.Fatal(err)
	}
	return a, b
}

func validQuery(t *testing.T) *Query {
	t.Helper()
	a, b := twoTables(t)
	q := &Query{
		Name: "q",
		Relations: []Relation{
			{Alias: "a", Table: a},
			{Alias: "b", Table: b},
		},
		Joins: []Join{{
			ID:   0,
			Left: ColumnRef{Alias: "a", Column: "k"}, Right: ColumnRef{Alias: "b", Column: "k"},
		}},
		Filters: []Filter{{
			ID: 0, Col: ColumnRef{Alias: "a", Column: "x"}, Op: OpLt, Args: []float64{5},
		}},
		EPPs: []int{0},
	}
	if err := q.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return q
}

func TestValidateFillsIndices(t *testing.T) {
	q := validQuery(t)
	if q.Joins[0].LeftRel != 0 || q.Joins[0].RightRel != 1 {
		t.Errorf("join rels = (%d,%d)", q.Joins[0].LeftRel, q.Joins[0].RightRel)
	}
	if q.Filters[0].Rel != 0 {
		t.Errorf("filter rel = %d", q.Filters[0].Rel)
	}
	if i, ok := q.RelationIndex("B"); !ok || i != 1 {
		t.Errorf("RelationIndex(B) = %d, %v", i, ok)
	}
}

func TestValidateErrors(t *testing.T) {
	a, b := twoTables(t)
	base := func() *Query {
		return &Query{
			Relations: []Relation{{Alias: "a", Table: a}, {Alias: "b", Table: b}},
			Joins: []Join{{
				ID:   0,
				Left: ColumnRef{Alias: "a", Column: "k"}, Right: ColumnRef{Alias: "b", Column: "k"},
			}},
		}
	}
	cases := []struct {
		name   string
		mutate func(*Query)
		want   string
	}{
		{"no relations", func(q *Query) { q.Relations = nil }, "no relations"},
		{"dup alias", func(q *Query) { q.Relations[1].Alias = "A" }, "duplicate alias"},
		{"nil table", func(q *Query) { q.Relations[0].Table = nil }, "no table"},
		{"bad join alias", func(q *Query) { q.Joins[0].Left.Alias = "zz" }, "unknown alias"},
		{"bad join column", func(q *Query) { q.Joins[0].Left.Column = "zz" }, "unknown column"},
		{"self join pred", func(q *Query) { q.Joins[0].Right.Alias = "a"; q.Joins[0].Right.Column = "x" }, "self-comparison"},
		{"join id mismatch", func(q *Query) { q.Joins[0].ID = 7 }, "has ID"},
		{"epp range", func(q *Query) { q.EPPs = []int{3} }, "out of range"},
		{"epp dup", func(q *Query) { q.EPPs = []int{0, 0} }, "duplicate epp"},
		{"disconnected", func(q *Query) { q.Joins = nil }, "disconnected"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := base()
			tc.mutate(q)
			err := q.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Validate = %v, want containing %q", err, tc.want)
			}
		})
	}
}

func TestIsEPP(t *testing.T) {
	q := validQuery(t)
	if dim, ok := q.IsEPP(0); !ok || dim != 0 {
		t.Errorf("IsEPP(0) = %d,%v", dim, ok)
	}
	if _, ok := q.IsEPP(1); ok {
		t.Error("IsEPP(1) should be false")
	}
	if q.D() != 1 {
		t.Errorf("D = %d", q.D())
	}
}

func TestFiltersOn(t *testing.T) {
	q := validQuery(t)
	if fs := q.FiltersOn(0); len(fs) != 1 {
		t.Errorf("FiltersOn(0) = %v", fs)
	}
	if fs := q.FiltersOn(1); len(fs) != 0 {
		t.Errorf("FiltersOn(1) = %v", fs)
	}
}

func TestStringRendering(t *testing.T) {
	q := validQuery(t)
	s := q.String()
	for _, want := range []string{"a ⋈ b", "epps", "a.k = b.k"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	if got := (ColumnRef{Alias: "t", Column: "c"}).String(); got != "t.c" {
		t.Errorf("ColumnRef.String = %q", got)
	}
}

func TestFilterOpString(t *testing.T) {
	ops := map[FilterOp]string{
		OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=",
		OpGt: ">", OpGe: ">=", OpBetween: "BETWEEN", OpIn: "IN",
	}
	for op, want := range ops {
		if op.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(op), op.String(), want)
		}
	}
	if s := FilterOp(99).String(); !strings.Contains(s, "99") {
		t.Errorf("unknown op String = %q", s)
	}
}

func TestMarkEPPsInPackage(t *testing.T) {
	q := validQuery(t)
	if err := q.MarkEPPs("b.k = a.k"); err != nil {
		t.Fatalf("MarkEPPs reversed: %v", err)
	}
	if q.D() != 1 || q.EPPs[0] != 0 {
		t.Errorf("EPPs = %v", q.EPPs)
	}
	if err := q.MarkEPPs("a.k = c.z"); err == nil {
		t.Error("unknown predicate should fail")
	}
	if err := q.MarkEPPs("malformed"); err == nil {
		t.Error("malformed predicate should fail")
	}
}
