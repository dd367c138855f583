package repro

import (
	"math"
	"testing"

	"repro/internal/workload"
)

// paperEQ is the paper's motivating example query EQ (Fig. 1), expressed
// over the TPC-DS-shaped catalog via the catalog-sales / item / date chain.
const paperEQ = `
SELECT * FROM catalog_sales cs, item i, date_dim d
WHERE cs.cs_item_sk = i.i_item_sk AND cs.cs_sold_date_sk = d.d_date_sk
AND i.i_current_price < 50`

var paperEPPs = []string{
	"cs.cs_item_sk = i.i_item_sk",
	"cs.cs_sold_date_sk = d.d_date_sk",
}

func newTestSession(t *testing.T) *Session {
	t.Helper()
	opts := DefaultOptions()
	opts.GridRes = 10
	sess, err := NewSession(TPCDSCatalog(10), paperEQ, paperEPPs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// benchmarkQuery resolves a benchmark query by name, failing the test when
// no query has that name.
func benchmarkQuery(t *testing.T, name string) BenchmarkQuery {
	t.Helper()
	bq, ok := BenchmarkQueryByName(name)
	if !ok {
		t.Fatalf("no benchmark query %q", name)
	}
	return bq
}

func TestNewSessionBasics(t *testing.T) {
	sess := newTestSession(t)
	if sess.D() != 2 {
		t.Fatalf("D = %d", sess.D())
	}
	if sess.POSPSize() < 2 {
		t.Errorf("POSP = %d", sess.POSPSize())
	}
	if sess.ContourCount() < 3 {
		t.Errorf("contours = %d", sess.ContourCount())
	}
	est := sess.EstimateLocation()
	if len(est) != 2 || est[0] <= 0 || est[0] > 1 {
		t.Errorf("estimate = %v", est)
	}
}

func TestNewSessionErrors(t *testing.T) {
	cat := TPCDSCatalog(1)
	cases := []struct {
		sql  string
		epps []string
		opts Options
	}{
		{"SELECT * FROM nothere", nil, DefaultOptions()},
		{paperEQ, []string{"a.b = c.d"}, DefaultOptions()},
		{paperEQ, paperEPPs, Options{GridRes: 1, Params: PostgresProfile()}},
		{paperEQ, paperEPPs, Options{GridRes: 1, Params: PostgresProfile(), Workers: 2}},
		{paperEQ, paperEPPs, Options{GridRes: 4, Params: PostgresProfile(), ContourRatio: 1}},
	}
	for i, tc := range cases {
		if _, err := NewSession(cat, tc.sql, tc.epps, tc.opts); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestGuarantees(t *testing.T) {
	sess := newTestSession(t)
	if g := sess.Guarantee(SpillBound); g != 10 {
		t.Errorf("SB guarantee = %g, want 10 (D=2)", g)
	}
	if g := sess.Guarantee(AlignedBound); g != 10 {
		t.Errorf("AB upper = %g", g)
	}
	if g, _ := sess.GuaranteeRangeAB(); g != 6 {
		t.Errorf("AB lower = %g", g)
	}
	if g := sess.Guarantee(PlanBouquet); g < 4 {
		t.Errorf("PB guarantee = %g", g)
	}
	if !math.IsInf(sess.Guarantee(Native), 1) {
		t.Error("native guarantee should be unbounded")
	}
}

// TestPlanBouquetGuaranteeFixedAtBuild pins the guarantee a session fixes
// when it is built to the formula it replaced, 4(1+λ)ρ with ρ counted
// contour by contour from ContourCells, bit for bit on every listed query.
func TestPlanBouquetGuaranteeFixedAtBuild(t *testing.T) {
	for _, bq := range workload.All() {
		s, err := NewBenchmarkSession(bq, BenchmarkOptions())
		if err != nil {
			t.Fatalf("%s: %v", bq.Name, err)
		}
		rho := 0
		for _, cc := range s.space.ContourCosts(s.opts.ContourRatio) {
			seen := map[int]bool{}
			for _, ci := range s.space.Full().ContourCells(cc) {
				seen[s.diag.PlanIDAt(ci)] = true
			}
			rho = max(rho, len(seen))
		}
		want := 4 * (1 + s.diag.Lambda) * float64(rho)
		if got := s.Guarantee(PlanBouquet); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: PlanBouquet guarantee %v, want %v (rho %d)", bq.Name, got, want, rho)
		}
	}
}

func TestRunAllAlgorithms(t *testing.T) {
	sess := newTestSession(t)
	truth := Location{0.01, 0.001}
	for _, a := range []Algorithm{Native, PlanBouquet, SpillBound, AlignedBound} {
		res, err := sess.Run(a, truth)
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		if res.SubOpt < 1-1e-9 {
			t.Errorf("%v: SubOpt %g < 1", a, res.SubOpt)
		}
		if res.Trace == "" {
			t.Errorf("%v: empty trace", a)
		}
		if a != Native && len(res.Steps) == 0 {
			t.Errorf("%v: no steps", a)
		}
		if g := sess.Guarantee(a); res.SubOpt > g {
			t.Errorf("%v: SubOpt %g exceeds guarantee %g", a, res.SubOpt, g)
		}
	}
}

func TestRunValidation(t *testing.T) {
	sess := newTestSession(t)
	if _, err := sess.Run(SpillBound, Location{0.5}); err == nil {
		t.Error("dimension mismatch should error")
	}
	if _, err := sess.Run(SpillBound, Location{0.5, 0}); err == nil {
		t.Error("zero selectivity should error")
	}
	if _, err := sess.Run(SpillBound, Location{0.5, 1.5}); err == nil {
		t.Error("selectivity above 1 should error")
	}
	if _, err := sess.Run(Algorithm("bogus"), Location{0.5, 0.5}); err == nil {
		t.Error("unknown algorithm should error")
	}
}

func TestSweepOrdering(t *testing.T) {
	sess := newTestSession(t)
	sb, err := sess.Sweep(SpillBound, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sb.MSO > sess.Guarantee(SpillBound) {
		t.Errorf("SB sweep MSO %g exceeds bound", sb.MSO)
	}
	if sb.ASO > sb.MSO || sb.ASO < 1 {
		t.Errorf("ASO %g vs MSO %g", sb.ASO, sb.MSO)
	}
	if sb.Locations != 100 {
		t.Errorf("exhaustive sweep locations = %d, want 100", sb.Locations)
	}
	if len(sb.WorstLocation) != 2 {
		t.Errorf("worst location = %v", sb.WorstLocation)
	}
	capped, err := sess.Sweep(SpillBound, 20)
	if err != nil {
		t.Fatal(err)
	}
	if capped.Locations != 20 {
		t.Errorf("capped sweep locations = %d", capped.Locations)
	}
	if _, err := sess.Sweep(Algorithm("bogus"), 0); err == nil {
		t.Error("unknown algorithm should error")
	}
}

func TestNativeMSOMotivation(t *testing.T) {
	sess := newTestSession(t)
	nat := sess.NativeMSO(1)
	sb, _ := sess.Sweep(SpillBound, 0)
	if nat < sb.MSO {
		t.Errorf("native MSO %g should be at least SB's %g", nat, sb.MSO)
	}
}

func TestAlgorithmNames(t *testing.T) {
	for _, a := range []Algorithm{Native, PlanBouquet, SpillBound, AlignedBound} {
		st, err := ParseStrategy(a.String())
		if err != nil || st.Info().Name != a.String() {
			t.Errorf("round trip %v: %v, %v", a, st, err)
		}
	}
	if _, err := ParseStrategy("nope"); err == nil {
		t.Error("ParseStrategy(nope) should fail")
	}
	if Algorithm("bogus").String() != "bogus" {
		t.Error("Algorithm String should echo the registry name")
	}
}

func TestProfilesExported(t *testing.T) {
	if PostgresProfile().Name == CommercialProfile().Name {
		t.Error("profiles should differ")
	}
	if TPCDSCatalog(1).Len() == 0 || IMDBCatalog().Len() == 0 {
		t.Error("catalogs should be populated")
	}
	c := NewCatalog("custom")
	if c.Len() != 0 {
		t.Error("new catalog should be empty")
	}
}

func TestBenchmarkQueryHelpers(t *testing.T) {
	suite := BenchmarkQueries()
	if len(suite) < 11 {
		t.Fatalf("suite = %d", len(suite))
	}
	if _, ok := BenchmarkQueryByName("4D_Q91"); !ok {
		t.Error("ByName(4D_Q91) failed")
	}
	if _, ok := BenchmarkQueryByName("4D_Q25"); !ok {
		t.Error("ByName(4D_Q25) failed")
	}
	if _, ok := BenchmarkQueryByName("zzz"); ok {
		t.Error("ByName(zzz) should fail")
	}
	if JOB1aBenchmark().Catalog != "imdb" {
		t.Error("JOB1a catalog")
	}
	if bq, ok := BenchmarkQueryByName("2D_EQ"); !ok || bq.Catalog != "tpch" {
		t.Error("EQ catalog")
	}
	// Unknown catalog in a synthetic spec.
	bad := BenchmarkQuery{Name: "x", Catalog: "nope", SQL: "SELECT * FROM part", GridRes: 4, GridLo: 1e-4}
	if _, err := NewBenchmarkSession(bad, BenchmarkOptions()); err == nil {
		t.Error("unknown catalog should error")
	}
}

func TestSweepAllAlgorithms(t *testing.T) {
	sess := newTestSession(t)
	for _, a := range []Algorithm{Native, PlanBouquet, AlignedBound} {
		sum, err := sess.Sweep(a, 16)
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		if sum.MSO < 1 || sum.Locations != 16 {
			t.Errorf("%v: %+v", a, sum)
		}
	}
}
