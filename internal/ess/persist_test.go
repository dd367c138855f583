package ess

import (
	"bytes"
	"context"
	"encoding/gob"
	"math"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/optimizer"
	"repro/internal/plan"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	s := buildSpace(t, 8)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := Load(&buf, s.Model)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if loaded.Grid.Size() != s.Grid.Size() || loaded.Grid.D != s.Grid.D {
		t.Fatal("grid mismatch")
	}
	if len(loaded.Plans()) != len(s.Plans()) {
		t.Fatalf("plans = %d, want %d", len(loaded.Plans()), len(s.Plans()))
	}
	for ci := 0; ci < s.Grid.Size(); ci++ {
		if loaded.CostAt(ci) != s.CostAt(ci) {
			t.Fatalf("cell %d cost %g != %g", ci, loaded.CostAt(ci), s.CostAt(ci))
		}
		if loaded.PlanAt(ci).Fingerprint() != s.PlanAt(ci).Fingerprint() {
			t.Fatalf("cell %d plan mismatch", ci)
		}
	}
	// Loaded plans must re-evaluate to the recorded surface.
	for ci := 0; ci < s.Grid.Size(); ci += 5 {
		ev := loaded.Model.Eval(loaded.PlanAt(ci), loaded.Grid.Location(ci))
		if math.Abs(ev-loaded.CostAt(ci)) > 1e-9*math.Max(ev, loaded.CostAt(ci)) {
			t.Fatalf("cell %d: eval %g vs recorded %g", ci, ev, loaded.CostAt(ci))
		}
	}
}

func TestLoadRejectsCorruptInput(t *testing.T) {
	s := buildSpace(t, 6)
	if _, err := Load(strings.NewReader("junk"), s.Model); err == nil {
		t.Error("garbage input should fail")
	}

	// Dimensionality mismatch: save a 2D space, load against a model whose
	// query has 1 epp.
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	q1 := *s.Query
	q1.EPPs = s.Query.EPPs[:1]
	if err := q1.Validate(); err != nil {
		t.Fatal(err)
	}
	m1 := cost.MustNewModel(&q1, cost.PostgresLike())
	if _, err := Load(&buf, m1); err == nil || !strings.Contains(err.Error(), "dims") {
		t.Errorf("dimension mismatch should fail, got %v", err)
	}
}

func TestLoadRejectsTruncatedInput(t *testing.T) {
	s := buildSpace(t, 6)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// A crash mid-write leaves a torn file; every prefix must error out (not
	// panic, not return a partial space).
	full := buf.Bytes()
	for _, n := range []int{0, 1, len(full) / 2, len(full) - 1} {
		if sp, err := Load(bytes.NewReader(full[:n]), s.Model); err == nil || sp != nil {
			t.Errorf("truncated input (%d/%d bytes) should fail, got space=%v err=%v", n, len(full), sp != nil, err)
		}
	}
}

func TestLoadRejectsVersionSkew(t *testing.T) {
	s := buildSpace(t, 6)
	var buf bytes.Buffer
	dto := spaceDTO{Version: persistVersion + 1, GridPoints: s.Grid.Points}
	if err := gob.NewEncoder(&buf).Encode(&dto); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf, s.Model); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("future persist version should fail, got %v", err)
	}
}

func TestLoadValidatesPlanReferences(t *testing.T) {
	s := buildSpace(t, 4)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Re-encode with a rogue relation index by round-tripping through the
	// DTO layer directly: simplest is to corrupt via a fresh save of a
	// synthetic space with a bad plan.
	bad := plan.New(&plan.Node{Kind: plan.SeqScan, Rel: 99})
	sy := FromSurface(s.Model, s.Grid, []*plan.Plan{bad},
		func(ci int) float64 { return float64(ci + 1) },
		func(ci int) int { return 0 })
	var buf2 bytes.Buffer
	if err := sy.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf2, s.Model); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("rogue relation index should fail, got %v", err)
	}
}

func TestBuildParallelMatchesSequential(t *testing.T) {
	s := sequentialSpace(t, 8)
	par, err := BuildParallelContext(context.Background(), s.Model, s.Grid, 4, nil)
	if err != nil {
		t.Fatalf("BuildParallelContext: %v", err)
	}
	if len(par.Plans()) != len(s.Plans()) {
		t.Fatalf("parallel POSP %d != sequential %d", len(par.Plans()), len(s.Plans()))
	}
	for ci := 0; ci < s.Grid.Size(); ci++ {
		if par.CostAt(ci) != s.CostAt(ci) {
			t.Fatalf("cell %d: %g != %g", ci, par.CostAt(ci), s.CostAt(ci))
		}
		if par.PlanAt(ci).Fingerprint() != s.PlanAt(ci).Fingerprint() {
			t.Fatalf("cell %d: plan mismatch", ci)
		}
		if par.PlanIDAt(ci) != s.PlanIDAt(ci) {
			t.Fatalf("cell %d: plan numbering differs (%d vs %d)", ci, par.PlanIDAt(ci), s.PlanIDAt(ci))
		}
	}
}

func TestBuildParallelSingleWorker(t *testing.T) {
	s := sequentialSpace(t, 4)
	par, err := BuildParallelContext(context.Background(), s.Model, s.Grid, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if par.MaxCost() != s.MaxCost() {
		t.Error("single-worker parallel build diverges")
	}
}

func TestFromSurface(t *testing.T) {
	s := buildSpace(t, 4)
	p0 := plan.New(&plan.Node{Kind: plan.SeqScan, Rel: 0})
	sy := FromSurface(s.Model, s.Grid, []*plan.Plan{p0},
		func(ci int) float64 { return float64(ci + 1) },
		func(ci int) int { return 0 })
	if sy.CostAt(0) != 1 || sy.CostAt(5) != 6 {
		t.Errorf("surface costs not honoured: %g, %g", sy.CostAt(0), sy.CostAt(5))
	}
	if sy.PlanAt(3) != p0 {
		t.Error("plan assignment not honoured")
	}
	// Flat-index order is monotone along each axis here, so contour
	// machinery applies.
	costs := sy.ContourCosts(2)
	if costs[0] != 1 || costs[len(costs)-1] != float64(sy.Grid.Size()) {
		t.Errorf("contour costs = %v", costs)
	}
}

func optimizerFor(t *testing.T, s *Space) *optimizer.Optimizer {
	t.Helper()
	return optimizer.MustNew(s.Model)
}
