package repro

import (
	"bytes"
	"math"
	"testing"
)

// TestEndToEndEQ is the cross-cutting integration test: starting from the
// paper's example query as raw SQL, identify the epps automatically, build
// the ESS in parallel, persist and reload it, process the query with every
// strategy in both the simulated and physical engines, and verify the
// structural guarantees across an exhaustive sweep.
func TestEndToEndEQ(t *testing.T) {
	bq := EQBenchmark()
	cat := TPCHCatalog(1)

	// 1. Automatic epp identification must recover the spec's designation
	//    (order-insensitive).
	epps, err := IdentifyEPPs(cat, bq.SQL, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(epps) != 2 {
		t.Fatalf("identified %v", epps)
	}

	// 2. Parallel ESS construction.
	opts := DefaultOptions()
	opts.GridRes = 10
	opts.Workers = 4
	sess, err := NewSession(cat, bq.SQL, epps, opts)
	if err != nil {
		t.Fatal(err)
	}

	// 3. Persistence round trip.
	var disk bytes.Buffer
	if err := sess.SaveESS(&disk); err != nil {
		t.Fatal(err)
	}
	warm, err := LoadSession(cat, bq.SQL, epps, opts, &disk)
	if err != nil {
		t.Fatal(err)
	}

	// 4. Every strategy completes on the reloaded session; robust ones
	//    stay within their guarantees.
	truth := Location{0.002, 0.0005}
	for _, a := range []Algorithm{Native, PlanBouquet, SpillBound, AlignedBound} {
		res, err := warm.Run(a, truth)
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		if g := warm.Guarantee(a); !math.IsInf(g, 1) && res.SubOpt > g {
			t.Errorf("%v: SubOpt %.2f exceeds guarantee %.2f", a, res.SubOpt, g)
		}
	}

	// 5. Exhaustive sweeps respect the bounds and the expected ordering.
	sb, err := warm.Sweep(SpillBound, 0)
	if err != nil {
		t.Fatal(err)
	}
	ab, err := warm.Sweep(AlignedBound, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sb.MSO > warm.Guarantee(SpillBound) || ab.MSO > warm.Guarantee(AlignedBound) {
		t.Errorf("sweep MSOs exceed bounds: SB %.2f AB %.2f", sb.MSO, ab.MSO)
	}
	if nat := warm.NativeMSO(1); nat < sb.MSO {
		t.Errorf("native MSO %.1f below SpillBound's %.2f", nat, sb.MSO)
	}

	// 6. Physical execution over real rows (capped cardinalities).
	phys, err := warm.RunPhysical(SpillBound, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if !strictlyPositive(phys.TotalCost, phys.OptimalCost, phys.SubOpt) {
		t.Errorf("physical run degenerate: %+v", phys)
	}

	// 7. The rendering surfaces work on the same session.
	if _, err := warm.ContourMap(); err != nil {
		t.Errorf("ContourMap: %v", err)
	}
	if _, err := warm.RenderRun(truth); err != nil {
		t.Errorf("RenderRun: %v", err)
	}
}

func strictlyPositive(xs ...float64) bool {
	for _, x := range xs {
		if !(x > 0) || math.IsInf(x, 0) || math.IsNaN(x) {
			return false
		}
	}
	return true
}

// TestGuaranteeMonotoneInD sanity-checks the structural formulas across
// the Q91 dimensional ladder on real sessions.
func TestGuaranteeMonotoneInD(t *testing.T) {
	prevSB, prevABLo := 0.0, 0.0
	for d := 2; d <= 4; d++ {
		opts := BenchmarkOptions()
		opts.GridRes = []int{0, 0, 8, 5, 4}[d]
		sess, err := NewBenchmarkSession(Q91Benchmark(d), opts)
		if err != nil {
			t.Fatal(err)
		}
		sb := sess.Guarantee(SpillBound)
		abLo := sess.GuaranteeLowerAB()
		if sb <= prevSB || abLo <= prevABLo {
			t.Errorf("D=%d: guarantees not increasing (SB %g, ABlo %g)", d, sb, abLo)
		}
		if sb != float64(d*d+3*d) || abLo != float64(2*d+2) {
			t.Errorf("D=%d: formulas off (SB %g, ABlo %g)", d, sb, abLo)
		}
		prevSB, prevABLo = sb, abLo
	}
}

// TestSuiteBoundCompliance runs SpillBound and AlignedBound on every
// benchmark query of the paper's evaluation (shrunken grids) and verifies,
// per query: completion everywhere, the D²+3D structural bound, and AB's
// retained upper bound — the library's core promise, checked across all
// join geometries in one table-driven sweep.
func TestSuiteBoundCompliance(t *testing.T) {
	for _, bq := range BenchmarkQueries() {
		bq := bq
		t.Run(bq.Name, func(t *testing.T) {
			opts := BenchmarkOptions()
			switch {
			case bq.D <= 3:
				opts.GridRes = 6
			case bq.D == 4:
				opts.GridRes = 5
			default:
				opts.GridRes = 4
			}
			sess, err := NewBenchmarkSession(bq, opts)
			if err != nil {
				t.Fatal(err)
			}
			bound := sess.Guarantee(SpillBound)
			sb, err := sess.Sweep(SpillBound, 48)
			if err != nil {
				t.Fatal(err)
			}
			if sb.MSO > bound {
				t.Errorf("SB MSO %.2f exceeds D²+3D = %g", sb.MSO, bound)
			}
			ab, err := sess.Sweep(AlignedBound, 48)
			if err != nil {
				t.Fatal(err)
			}
			if ab.MSO > bound {
				t.Errorf("AB MSO %.2f exceeds retained bound %g", ab.MSO, bound)
			}
			if sb.MSO < 1 || ab.MSO < 1 {
				t.Error("sub-optimality accounting broken")
			}
		})
	}
}
