package workload

import (
	"reflect"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/optimizer"
)

func TestAllSuiteQueriesBuild(t *testing.T) {
	cat := catalog.TPCDS(100)
	for _, sp := range TPCDSQueries() {
		q, err := sp.Build(cat)
		if err != nil {
			t.Errorf("%s: %v", sp.Name, err)
			continue
		}
		if q.D() != sp.D {
			t.Errorf("%s: D = %d, want %d", sp.Name, q.D(), sp.D)
		}
		if sp.GridRes < 2 || sp.GridLo <= 0 {
			t.Errorf("%s: bad grid spec %d/%g", sp.Name, sp.GridRes, sp.GridLo)
		}
		// The query must be optimizable end-to-end.
		m, err := cost.NewModel(q, cost.PostgresLike())
		if err != nil {
			t.Errorf("%s: model: %v", sp.Name, err)
			continue
		}
		o, err := optimizer.New(m)
		if err != nil {
			t.Errorf("%s: optimizer: %v", sp.Name, err)
			continue
		}
		loc := make(cost.Location, q.D())
		for d := range loc {
			loc[d] = 1e-4
		}
		p, c := o.Optimize(loc)
		if p == nil || c <= 0 {
			t.Errorf("%s: optimize produced %v/%g", sp.Name, p, c)
		}
	}
}

func TestSuiteCoversPaperDimensionalities(t *testing.T) {
	byD := map[int]int{}
	for _, sp := range TPCDSQueries() {
		byD[sp.D]++
	}
	for d := 3; d <= 6; d++ {
		if byD[d] == 0 {
			t.Errorf("no %dD query in the suite", d)
		}
	}
	if len(TPCDSQueries()) < 11 {
		t.Errorf("suite has %d queries, paper evaluates ~11", len(TPCDSQueries()))
	}
}

func TestQ91Dimensions(t *testing.T) {
	cat := catalog.TPCDS(100)
	for d := 2; d <= 6; d++ {
		sp := Q91(d)
		q, err := sp.Build(cat)
		if err != nil {
			t.Fatalf("Q91(%d): %v", d, err)
		}
		if q.D() != d {
			t.Errorf("Q91(%d).D = %d", d, q.D())
		}
	}
	// Growing D must only add epps, never change the earlier ones.
	for d := 3; d <= 6; d++ {
		lo, hi := Q91(d-1), Q91(d)
		for i := 0; i < d-1; i++ {
			if lo.EPPs[i] != hi.EPPs[i] {
				t.Errorf("Q91 epp %d changes between D=%d and D=%d", i, d-1, d)
			}
		}
	}
}

func TestQ91PanicsOutOfRange(t *testing.T) {
	for _, d := range []int{1, 7} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Q91(%d) should panic", d)
				}
			}()
			Q91(d)
		}()
	}
}

func TestJOB1aBuilds(t *testing.T) {
	sp := JOB1a()
	q, err := sp.Build(catalog.IMDB())
	if err != nil {
		t.Fatalf("JOB1a: %v", err)
	}
	if q.D() != 2 {
		t.Errorf("JOB1a D = %d", q.D())
	}
	if sp.Catalog != "imdb" {
		t.Errorf("JOB1a catalog = %q", sp.Catalog)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"4D_Q91", "3D_Q96", "2D_Q91", "JOB_1a"} {
		if _, ok := ByName(name); !ok {
			t.Errorf("ByName(%q) not found", name)
		}
	}
	if _, ok := ByName("9D_Q0"); ok {
		t.Error("ByName(9D_Q0) should not resolve")
	}
}

// TestNamesMatchSuite pins the listing order: the evaluation suite first,
// then the rest of All.
func TestNamesMatchSuite(t *testing.T) {
	names := Names()
	suite := TPCDSQueries()
	all := All()
	if len(names) != len(all) || len(all) <= len(suite) {
		t.Fatalf("Names len %d, All len %d, suite len %d", len(names), len(all), len(suite))
	}
	for i, sp := range all {
		if names[i] != sp.Name {
			t.Errorf("Names[%d] = %q, want %q", i, names[i], sp.Name)
		}
		if i < len(suite) && sp.Name != suite[i].Name {
			t.Errorf("All[%d] = %q, want suite query %q", i, sp.Name, suite[i].Name)
		}
	}
}

// TestListedQueriesResolveOnce checks the one query table: every listed
// name appears once and resolves to the listed spec, every name that
// resolved before the table existed still does, and the CHAOS_FAIL drill
// spec resolves without being listed.
func TestListedQueriesResolveOnce(t *testing.T) {
	seen := map[string]bool{}
	for _, sp := range All() {
		if seen[sp.Name] {
			t.Errorf("%s listed twice", sp.Name)
		}
		seen[sp.Name] = true
		got, ok := ByName(sp.Name)
		if !ok || !reflect.DeepEqual(got, sp) {
			t.Errorf("ByName(%q) = %v, %v; want the listed spec", sp.Name, got.Name, ok)
		}
	}
	want := []Spec{Q91(2), Q91(3), Q91(4), Q91(5), Q91(6), Q25(), EQ(), JOB1a()}
	for _, sp := range append(want, TPCDSQueries()...) {
		if !seen[sp.Name] {
			t.Errorf("%s not listed", sp.Name)
		}
		if got, ok := ByName(sp.Name); !ok || !reflect.DeepEqual(got, sp) {
			t.Errorf("ByName(%q) no longer resolves to its spec", sp.Name)
		}
	}
	if seen["CHAOS_FAIL"] {
		t.Error("CHAOS_FAIL must not be listed")
	}
	if got, ok := ByName("CHAOS_FAIL"); !ok || !reflect.DeepEqual(got, ChaosFail()) {
		t.Error("CHAOS_FAIL must still resolve")
	}
}

func TestBuildErrors(t *testing.T) {
	cat := catalog.TPCDS(1)
	bad := Spec{Name: "bad", SQL: "SELECT * FROM nothere", EPPs: nil}
	if _, err := bad.Build(cat); err == nil {
		t.Error("Build of invalid SQL should fail")
	}
	bad2 := Spec{
		Name: "bad2",
		SQL:  "SELECT * FROM store s, store_sales ss WHERE ss.ss_store_sk = s.s_store_sk",
		EPPs: []string{"nope.x = y.z"},
	}
	if _, err := bad2.Build(cat); err == nil {
		t.Error("Build with unknown epp should fail")
	}
}

func TestChaosFailIsHiddenAndFails(t *testing.T) {
	sp, ok := ByName("CHAOS_FAIL")
	if !ok {
		t.Fatal("ByName(CHAOS_FAIL) should resolve (the replay drill depends on it)")
	}
	if _, err := sp.Build(catalog.TPCDS(1)); err == nil {
		t.Error("CHAOS_FAIL build should fail — it exists to trip the breaker")
	}
	for _, name := range Names() {
		if name == "CHAOS_FAIL" {
			t.Error("CHAOS_FAIL leaked into Names(); it must stay off the public listing")
		}
	}
}

func TestEQBuilds(t *testing.T) {
	sp := EQ()
	q, err := sp.Build(catalog.TPCH(1))
	if err != nil {
		t.Fatalf("EQ: %v", err)
	}
	if q.D() != 2 {
		t.Errorf("EQ D = %d", q.D())
	}
	if sp.Catalog != "tpch" {
		t.Errorf("EQ catalog = %q", sp.Catalog)
	}
	if _, ok := ByName("2D_EQ"); !ok {
		t.Error("ByName(2D_EQ) should resolve")
	}
	m, err := cost.NewModel(q, cost.PostgresLike())
	if err != nil {
		t.Fatal(err)
	}
	o, err := optimizer.New(m)
	if err != nil {
		t.Fatal(err)
	}
	if p, c := o.Optimize(cost.Location{1e-5, 1e-6}); p == nil || c <= 0 {
		t.Error("EQ does not optimize")
	}
}
