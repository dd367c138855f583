// Join Order Benchmark demonstration (paper Sec 6.5): on JOB-style
// skewed-correlated workloads the native optimizer's worst case explodes,
// while SpillBound and AlignedBound stay within their structural bounds.
package main

import (
	"fmt"
	"log"

	repro "repro"
)

func main() {
	bq := repro.JOB1aBenchmark()
	opts := repro.BenchmarkOptions()
	sess, err := repro.NewBenchmarkSession(bq, opts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("query %s over the IMDB-shaped catalog, D = %d\n\n", bq.Name, sess.D())

	// Native worst case over every (estimate, actual) pair — Eq. (2).
	nat := sess.NativeMSO(1)
	sb, err := sess.Sweep(repro.SpillBound, 0)
	if err != nil {
		log.Fatal(err)
	}
	ab, err := sess.Sweep(repro.AlignedBound, 0)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("native optimizer MSO : %8.0f   (unbounded in principle)\n", nat)
	fmt.Printf("SpillBound MSO       : %8.1f   (guarantee %.0f)\n", sb.MSO, sess.Guarantee(repro.SpillBound))
	abLo, abHi := sess.GuaranteeRangeAB()
	fmt.Printf("AlignedBound MSO     : %8.1f   (range [%.0f, %.0f])\n", ab.MSO, abLo, abHi)

	// Drill into one painful instance: the estimate is tiny, the actual
	// selectivities are large.
	truth := repro.Location{0.05, 0.1}
	natRun, err := sess.Run(repro.Native, truth)
	if err != nil {
		log.Fatal(err)
	}
	sbRun, err := sess.Run(repro.SpillBound, truth)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nat q_a=%v: native sub-opt %.1f, SpillBound sub-opt %.1f\n",
		truth, natRun.SubOpt, sbRun.SubOpt)
	fmt.Println("\nSpillBound trace:")
	fmt.Print(sbRun.Trace)
}
