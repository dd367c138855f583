package estimate

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/query"
)

// skewedQuery builds a two-table join whose columns carry the given skew.
func skewedQuery(t *testing.T, skew float64) *query.Query {
	t.Helper()
	c := catalog.New("t")
	c.MustAddTable(&catalog.Table{
		Name: "l", Rows: 10000, RowBytes: 40,
		Columns: []catalog.Column{{Name: "k", Distinct: 500, Min: 1, Max: 500, Skew: skew}},
	})
	c.MustAddTable(&catalog.Table{
		Name: "r", Rows: 20000, RowBytes: 40,
		Columns: []catalog.Column{{Name: "k", Distinct: 500, Min: 1, Max: 500, Skew: skew}},
	})
	q := &query.Query{
		Name: "skewed",
		Relations: []query.Relation{
			{Alias: "l", Table: mustTable(c, "l")},
			{Alias: "r", Table: mustTable(c, "r")},
		},
		Joins: []query.Join{{
			ID:   0,
			Left: query.ColumnRef{Alias: "l", Column: "k"}, Right: query.ColumnRef{Alias: "r", Column: "k"},
		}},
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	return q
}

func mustTable(c *catalog.Catalog, name string) *catalog.Table {
	t, ok := c.Table(name)
	if !ok {
		panic(name)
	}
	return t
}

func TestAVIMatchesTruthOnUniformData(t *testing.T) {
	q := skewedQuery(t, 0)
	avi, err := AVIJoinSelectivity(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := TrueJoinSelectivity(q, 0, 40000)
	if err != nil {
		t.Fatal(err)
	}
	if f := ErrorFactor(truth, avi); f > 1.1 {
		t.Errorf("uniform data: AVI off by %.2f× (truth %g, est %g)", f, truth, avi)
	}
}

// TestAVIErrsOnSkewedData is the paper's premise: statistics-only
// estimates are "often significantly in error" — under heavy-hitter skew
// the true join selectivity is far above 1/max(NDV).
func TestAVIErrsOnSkewedData(t *testing.T) {
	prev := 1.0
	for _, skew := range []float64{1, 2, 4} {
		q := skewedQuery(t, skew)
		avi, _ := AVIJoinSelectivity(q, 0)
		truth, _ := TrueJoinSelectivity(q, 0, 40000)
		f := ErrorFactor(truth, avi)
		if f < prev {
			t.Errorf("skew %g: error factor %.2f did not grow (prev %.2f)", skew, f, prev)
		}
		prev = f
		if truth < avi {
			t.Errorf("skew %g: heavy hitters should raise the true selectivity above AVI", skew)
		}
	}
	if prev < 5 {
		t.Errorf("at skew 4 the AVI error factor is only %.2f; expected substantial error", prev)
	}
}

func TestSampledBeatsAVIOnSkew(t *testing.T) {
	q := skewedQuery(t, 3)
	avi, _ := AVIJoinSelectivity(q, 0)
	sampled, err := SampledJoinSelectivity(q, 0, 5000)
	if err != nil {
		t.Fatal(err)
	}
	truth, _ := TrueJoinSelectivity(q, 0, 40000)
	if ErrorFactor(truth, sampled) >= ErrorFactor(truth, avi) {
		t.Errorf("sampling (%.2g, err %.2f×) should beat AVI (%.2g, err %.2f×) against truth %.2g",
			sampled, ErrorFactor(truth, sampled), avi, ErrorFactor(truth, avi), truth)
	}
}

func TestErrorFactor(t *testing.T) {
	if ErrorFactor(0.1, 0.01) != 10 || ErrorFactor(0.01, 0.1) != 10 {
		t.Error("symmetric error factor broken")
	}
	if ErrorFactor(1, 1) != 1 {
		t.Error("exact estimate should be factor 1")
	}
	if ErrorFactor(0, 1) != 0 || ErrorFactor(1, 0) != 0 {
		t.Error("degenerate inputs should be 0")
	}
}

func TestMissingColumnErrors(t *testing.T) {
	q := skewedQuery(t, 0)
	q.Joins[0].Left.Column = "nope"
	if _, err := AVIJoinSelectivity(q, 0); err == nil {
		t.Error("missing column should error")
	}
	if _, err := TrueJoinSelectivity(q, 0, 100); err == nil {
		t.Error("missing column should error")
	}
	if _, err := SampledJoinSelectivity(q, 0, 100); err == nil {
		t.Error("missing column should error")
	}
}
