package metrics

import (
	"context"
	"math"
	"slices"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/ess"
	"repro/internal/spillbound"
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

// sweep runs SweepContext to completion, failing the test on error.
func sweep(t *testing.T, s *ess.Space, run RunFunc, opts SweepOptions) SweepResult {
	t.Helper()
	res, err := SweepContext(context.Background(), s, run, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSweepExhaustive(t *testing.T) {
	s := buildSpace(t, 8)
	r := spillbound.NewRunner(s)
	run := func(truth cost.Location) float64 {
		return r.Run(engine.New(s.Model, truth)).TotalCost
	}
	res := sweep(t, s, run, SweepOptions{})
	if len(res.Cells) != s.Grid.Size() {
		t.Fatalf("exhaustive sweep visited %d cells", len(res.Cells))
	}
	if res.MSO < 1 || res.ASO < 1 || res.ASO > res.MSO {
		t.Errorf("MSO=%g ASO=%g inconsistent", res.MSO, res.ASO)
	}
	if res.MSOCell < 0 || res.SubOpt[indexOf(res.Cells, res.MSOCell)] != res.MSO {
		t.Errorf("MSOCell %d does not attain MSO", res.MSOCell)
	}
	// The structural bound holds across the sweep.
	if res.MSO > spillbound.Guarantee(2) {
		t.Errorf("MSO %g exceeds bound", res.MSO)
	}
}

func indexOf(cells []int, ci int) int {
	for i, c := range cells {
		if c == ci {
			return i
		}
	}
	return -1
}

func TestSweepSampled(t *testing.T) {
	s := buildSpace(t, 8)
	run := func(truth cost.Location) float64 { return s.MinCost() * 2 }
	res := sweep(t, s, run, SweepOptions{MaxLocations: 10, Seed: 1})
	if len(res.Cells) != 10 {
		t.Fatalf("sampled sweep visited %d cells, want 10", len(res.Cells))
	}
	// Origin and terminus always included.
	if res.Cells[0] != 0 || res.Cells[len(res.Cells)-1] != s.Grid.Size()-1 {
		t.Errorf("sample must include origin and terminus: %v", res.Cells)
	}
	// Determinism by seed.
	res2 := sweep(t, s, run, SweepOptions{MaxLocations: 10, Seed: 1})
	for i := range res.Cells {
		if res.Cells[i] != res2.Cells[i] {
			t.Fatal("sampling not deterministic for equal seeds")
		}
	}
}

// TestSweepCap proves a capped sweep evaluates at most MaxLocations cells:
// a cap of 1 is the origin alone, 2 adds the terminus, and 3 adds one
// seeded draw.
func TestSweepCap(t *testing.T) {
	s := buildSpace(t, 8)
	run := func(truth cost.Location) float64 { return s.MinCost() }
	last := s.Grid.Size() - 1
	for _, c := range []struct {
		max  int
		want []int
	}{
		{1, []int{0}},
		{2, []int{0, last}},
		{3, nil},
	} {
		res := sweep(t, s, run, SweepOptions{MaxLocations: c.max, Seed: 1})
		if len(res.Cells) != c.max {
			t.Fatalf("cap %d: swept %d cells %v", c.max, len(res.Cells), res.Cells)
		}
		if c.want != nil && !slices.Equal(res.Cells, c.want) {
			t.Errorf("cap %d: swept cells %v, want %v", c.max, res.Cells, c.want)
		}
		if res.Cells[0] != 0 || (c.max > 1 && res.Cells[c.max-1] != last) {
			t.Errorf("cap %d: sample %v misses the origin or terminus", c.max, res.Cells)
		}
	}
}

func TestHistogram(t *testing.T) {
	subOpt := []float64{1, 2, 4.9, 5, 7, 12, 100}
	h := Histogram(subOpt, 5, 3)
	if len(h) != 4 {
		t.Fatalf("histogram has %d buckets, want 4", len(h))
	}
	// [0,5): 1,2,4.9 -> 3; [5,10): 5,7 -> 2; [10,15): 12 -> 1; [15,inf): 100 -> 1.
	wantCounts := []int{3, 2, 1, 1}
	total := 0.0
	for i, b := range h {
		if b.Count != wantCounts[i] {
			t.Errorf("bucket %d count = %d, want %d", i, b.Count, wantCounts[i])
		}
		total += b.Pct
	}
	if math.Abs(total-100) > 1e-9 {
		t.Errorf("percentages sum to %g", total)
	}
	if !math.IsInf(h[3].Hi, 1) {
		t.Error("overflow bucket should be unbounded")
	}
}

func TestHistogramDegenerate(t *testing.T) {
	if h := Histogram(nil, 5, 2); len(h) != 3 {
		t.Errorf("empty input should still shape buckets: %d", len(h))
	}
	if Histogram([]float64{1}, 0, 2) != nil {
		t.Error("zero width should return nil")
	}
	if Histogram([]float64{1}, 5, 0) != nil {
		t.Error("zero buckets should return nil")
	}
}

func TestSweepParallelMatchesSequential(t *testing.T) {
	s := buildSpace(t, 8)
	r := spillbound.NewRunner(s)
	run := func(truth cost.Location) float64 {
		return r.Run(engine.New(s.Model, truth)).TotalCost
	}
	seq := sweep(t, s, run, SweepOptions{})
	par := sweep(t, s, run, SweepOptions{Workers: 8})
	if seq.MSO != par.MSO || seq.ASO != par.ASO || seq.MSOCell != par.MSOCell {
		t.Errorf("parallel sweep diverges: %+v vs %+v", par, seq)
	}
	for i := range seq.SubOpt {
		if seq.SubOpt[i] != par.SubOpt[i] {
			t.Fatalf("cell %d: %g vs %g", i, par.SubOpt[i], seq.SubOpt[i])
		}
	}
}
