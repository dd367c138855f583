package viz

import (
	"context"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/ess"
	"repro/internal/spillbound"
	"repro/internal/workload"
)

func build2D(t *testing.T, res int) *ess.Space {
	t.Helper()
	cat := catalog.TPCDS(10)
	q, err := workload.Q91(2).Build(cat)
	if err != nil {
		t.Fatal(err)
	}
	m := cost.MustNewModel(q, cost.PostgresLike())
	s, err := ess.BuildParallelContext(context.Background(), m, ess.NewGrid(2, res, 1e-6), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func build3D(t *testing.T) *ess.Space {
	t.Helper()
	cat := catalog.TPCDS(10)
	q, err := workload.Q91(3).Build(cat)
	if err != nil {
		t.Fatal(err)
	}
	m := cost.MustNewModel(q, cost.PostgresLike())
	s, err := ess.BuildParallelContext(context.Background(), m, ess.NewGrid(3, 4, 1e-6), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestContourMapRenders(t *testing.T) {
	s := build2D(t, 12)
	out, err := ContourMap(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Header + 12 rows + axis + 2 label lines.
	if len(lines) != 1+12+1+2 {
		t.Fatalf("unexpected line count %d:\n%s", len(lines), out)
	}
	if !strings.Contains(out, "contour map") {
		t.Error("missing header")
	}
	// The origin (bottom-left) is on the cheapest contour (band 0) and the
	// terminus (top-right) on the most expensive band.
	bottom := lines[1+12-1]
	top := lines[1]
	if !strings.Contains(bottom, "|0") {
		t.Errorf("bottom row should start at band 0: %q", bottom)
	}
	if strings.HasSuffix(top, "0") {
		t.Errorf("top row should end on an expensive band: %q", top)
	}
}

func TestContourMapBandsMonotone(t *testing.T) {
	s := build2D(t, 10)
	out, err := ContourMap(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Along each row, the band character must be nondecreasing in
	// band-index order (left to right = increasing selectivity).
	idx := func(c byte) int { return strings.IndexByte(bandChars, c) }
	for _, line := range strings.Split(out, "\n") {
		bar := strings.IndexByte(line, '|')
		if bar < 0 {
			continue
		}
		row := line[bar+1:]
		prev := -1
		for i := 0; i < len(row); i++ {
			b := idx(row[i])
			if b < 0 {
				t.Fatalf("unexpected rune %q in map row", row[i])
			}
			if b < prev {
				t.Fatalf("bands decrease along row: %q", row)
			}
			prev = b
		}
	}
}

func TestFig7Overlay(t *testing.T) {
	s := build2D(t, 16)
	truth := cost.Location{0.04, 0.1}
	run := spillbound.NewRunner(s).Run(engine.New(s.Model, truth))
	out, err := Fig7(s, 2, run, truth)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "X") {
		t.Error("truth marker missing")
	}
	if strings.Count(out, "*") < 3 {
		t.Errorf("Manhattan profile too short:\n%s", out)
	}
	if !strings.Contains(out, "q_run") {
		t.Error("legend missing")
	}
}

func TestRenderRejectsNon2D(t *testing.T) {
	s := build3D(t)
	if _, err := ContourMap(s, 2); err == nil {
		t.Error("3D map should be rejected")
	}
	if _, err := Fig7(s, 2, spillbound.Outcome{}, cost.Location{1, 1, 1}); err == nil {
		t.Error("3D Fig7 should be rejected")
	}
}

func TestBandChar(t *testing.T) {
	if bandChar(0) != '0' || bandChar(10) != 'a' {
		t.Error("band characters misaligned")
	}
	if bandChar(-1) != '?' || bandChar(1000) != '+' {
		t.Error("band character bounds misbehave")
	}
}

func TestPlanDiagram(t *testing.T) {
	s := build2D(t, 12)
	out, err := PlanDiagram(s, s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "plan diagram") {
		t.Error("header missing")
	}
	// Must show at least two distinct plan labels when the POSP is diverse.
	if len(distinctBodyRunes(out)) < 2 {
		t.Errorf("plan diagram shows a single region:\n%s", out)
	}
	if _, err := PlanDiagram(build3D(t), nil); err == nil {
		t.Error("3D plan diagram should be rejected")
	}
}

// distinctBodyRunes collects the cell labels from a rendered map.
func distinctBodyRunes(out string) map[byte]bool {
	seen := map[byte]bool{}
	for _, line := range strings.Split(out, "\n") {
		bar := strings.IndexByte(line, '|')
		if bar < 0 {
			continue
		}
		for i := bar + 1; i < len(line); i++ {
			seen[line[i]] = true
		}
	}
	return seen
}
