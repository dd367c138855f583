// Deployment workflow demonstration (paper Sec 7): automatic error-prone-
// predicate identification, parallel offline ESS construction, persisting
// the built space under a data directory, and reloading it in a fresh
// session — the "canned queries with offline enumeration" mode — plus
// processing under a bounded cost-model error.
package main

import (
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	repro "repro"
)

func main() {
	cat := repro.TPCDSCatalog(10)
	sql := `
		SELECT * FROM catalog_returns cr, date_dim d, customer c, customer_address ca
		WHERE cr.cr_returned_date_sk = d.d_date_sk
		  AND cr.cr_returning_customer_sk = c.c_customer_sk
		  AND c.c_current_addr_sk = ca.ca_address_sk
		  AND d.d_year = 1998`

	// 1. Which predicates are error-prone? Sec 7 suggests domain knowledge
	//    or conservatism; the library ranks joins by statistics-derived
	//    error-proneness instead of requiring a manual designation.
	epps, err := repro.IdentifyEPPs(cat, sql, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("identified error-prone predicates: %v\n", epps)

	// 2. Offline preprocessing, parallelized across cores (Sec 7:
	//    "the contour constructions can be carried out in parallel"). A
	//    data directory persists the built space.
	dir, err := os.MkdirTemp("", "rqp-offline-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	opts := repro.DefaultOptions()
	opts.GridRes = 24
	opts.Workers = runtime.NumCPU()
	opts.DataDir = dir
	start := time.Now()
	sess, err := repro.NewSession(cat, sql, epps, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("built %d-contour ESS with %d POSP plans in %v on %d workers\n",
		sess.ContourCount(), sess.POSPSize(), time.Since(start).Round(time.Millisecond), runtime.NumCPU())

	// 3. A later session on the same directory reloads the space without
	//    touching the optimizer.
	start = time.Now()
	warm, err := repro.NewSession(cat, sql, epps, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reloaded in %v\n\n", time.Since(start).Round(time.Microsecond))

	// 4. Process a query instance — and the same instance under a 30%
	//    bounded cost-model error (guarantees inflate by (1+δ)², Sec 7).
	truth := repro.Location{0.04, 0.1}
	clean, err := warm.Run(repro.SpillBound, truth)
	if err != nil {
		log.Fatal(err)
	}
	noisy, err := warm.RunWithCostError(repro.SpillBound, truth, 0.3, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SpillBound at q_a=%v: sub-optimality %.2f (bound %.0f)\n",
		truth, clean.SubOpt, warm.Guarantee(repro.SpillBound))
	fmt.Printf("same instance under δ=0.3 model error: sub-optimality %.2f (inflated bound %.1f)\n",
		noisy.SubOpt, warm.Guarantee(repro.SpillBound)*1.3*1.3)

	// 5. And the paper's Fig. 7 view of the discovery.
	plotted, err := warm.RenderRun(repro.SpillBound, truth)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(plotted)
}
