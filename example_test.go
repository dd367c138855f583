package repro_test

import (
	"fmt"
	"log"

	repro "repro"
)

// The paper's motivating example query EQ (Fig. 1): orders for cheap
// parts, with both join predicates error-prone.
func ExampleNewSession() {
	bq, _ := repro.BenchmarkQueryByName("2D_EQ")
	opts := repro.BenchmarkOptions()
	opts.GridRes = 10 // keep the example fast
	sess, err := repro.NewBenchmarkSession(bq, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("D =", sess.D())
	fmt.Println("SpillBound guarantee =", sess.Guarantee(repro.SpillBound))
	// Output:
	// D = 2
	// SpillBound guarantee = 10
}

func ExampleSession_Run() {
	bq, _ := repro.BenchmarkQueryByName("2D_EQ")
	sess, err := repro.NewBenchmarkSession(bq, func() repro.Options {
		o := repro.BenchmarkOptions()
		o.GridRes = 10
		return o
	}())
	if err != nil {
		log.Fatal(err)
	}
	res, err := sess.Run(repro.SpillBound, repro.Location{0.001, 0.0005})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("completed within the structural bound:", res.SubOpt <= 10)
	// Output:
	// completed within the structural bound: true
}

func ExampleIdentifyEPPs() {
	cat := repro.TPCHCatalog(1)
	epps, err := repro.IdentifyEPPs(cat, `
		SELECT * FROM part p, lineitem l, orders o
		WHERE p.p_partkey = l.l_partkey
		  AND o.o_orderkey = l.l_orderkey
		  AND p.p_retailprice < 1000`, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(len(epps), "error-prone predicates identified")
	// Output:
	// 2 error-prone predicates identified
}

func ExampleSession_Sweep() {
	bq, _ := repro.BenchmarkQueryByName("2D_EQ")
	sess, err := repro.NewBenchmarkSession(bq, func() repro.Options {
		o := repro.BenchmarkOptions()
		o.GridRes = 8
		return o
	}())
	if err != nil {
		log.Fatal(err)
	}
	sum, err := sess.Sweep(repro.SpillBound, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("exhaustive MSO within D²+3D:", sum.MSO <= 10)
	// Output:
	// exhaustive MSO within D²+3D: true
}
