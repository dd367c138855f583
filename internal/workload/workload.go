// Package workload defines the benchmark query suite of the paper's
// evaluation (Sec 6.1): SPJ analogues of TPC-DS queries with 2–6 error-
// prone join predicates spanning chain, star and branch join geometries,
// plus a Join Order Benchmark analogue (Sec 6.5). Each Spec carries the
// query text, the epp designation, and the recommended ESS grid for its
// dimensionality.
package workload

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/query"
	"repro/internal/sqlmini"
)

// Spec is one benchmark query with its experimental configuration.
type Spec struct {
	// Name follows the paper's xD_Qz nomenclature (e.g. "4D_Q91").
	Name string
	// D is the number of error-prone predicates.
	D int
	// Catalog names the backing catalog: "tpcds" or "imdb".
	Catalog string
	// SQL is the query text in the sqlmini dialect.
	SQL string
	// EPPs lists the error-prone join predicates, in dimension order.
	EPPs []string
	// GridRes is the recommended per-dimension grid resolution (chosen so
	// grid size stays laptop-scale as D grows).
	GridRes int
	// GridLo is the smallest selectivity of the grid.
	GridLo float64
}

// Build parses and binds the spec against the catalog, marking its epps.
func (sp Spec) Build(cat *catalog.Catalog) (*query.Query, error) {
	q, err := sqlmini.Parse(cat, sp.SQL)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", sp.Name, err)
	}
	q.Name = sp.Name
	if err := q.MarkEPPs(sp.EPPs...); err != nil {
		return nil, fmt.Errorf("workload %s: %w", sp.Name, err)
	}
	return q, nil
}

// defaultRes maps dimensionality to the recommended grid resolution.
func defaultRes(d int) int {
	switch d {
	case 1:
		return 64
	case 2:
		return 24
	case 3:
		return 12
	case 4:
		return 8
	case 5:
		return 6
	default:
		return 5
	}
}

const gridLo = 1e-6

func spec(name string, d int, sql string, epps ...string) Spec {
	return Spec{
		Name: name, D: d, Catalog: "tpcds", SQL: sql, EPPs: epps,
		GridRes: defaultRes(d), GridLo: gridLo,
	}
}

// q91SQL is the TPC-DS Query 91 analogue (catalog returns routed through
// call centers, with the customer demographic dimensions): a branch-shaped
// seven-relation join.
const q91SQL = `
SELECT *
FROM call_center cc, catalog_returns cr, date_dim d, customer c,
     customer_address ca, customer_demographics cd, household_demographics hd
WHERE cr.cr_call_center_sk = cc.cc_call_center_sk
  AND cr.cr_returned_date_sk = d.d_date_sk
  AND cr.cr_returning_customer_sk = c.c_customer_sk
  AND c.c_current_cdemo_sk = cd.cd_demo_sk
  AND c.c_current_hdemo_sk = hd.hd_demo_sk
  AND c.c_current_addr_sk = ca.ca_address_sk
  AND d.d_year = 1998 AND d.d_moy = 11
  AND hd.hd_buy_potential = 1
  AND cd.cd_marital_status = 2
  AND ca.ca_gmt_offset = -7`

// q91EPPs lists Q91's join predicates in the order dimensions are added as
// D grows from 2 to 6 (the paper's Fig. 9 experiment).
var q91EPPs = []string{
	"cr.cr_returned_date_sk = d.d_date_sk",   // X of the paper's Fig. 7
	"c.c_current_addr_sk = ca.ca_address_sk", // Y of the paper's Fig. 7
	"cr.cr_returning_customer_sk = c.c_customer_sk",
	"c.c_current_cdemo_sk = cd.cd_demo_sk",
	"c.c_current_hdemo_sk = hd.hd_demo_sk",
	"cr.cr_call_center_sk = cc.cc_call_center_sk",
}

// Q91 returns the Q91 analogue with the first d join predicates error-prone
// (2 <= d <= 6).
func Q91(d int) Spec {
	if d < 2 || d > 6 {
		panic(fmt.Sprintf("workload: Q91 supports 2..6 epps, got %d", d))
	}
	return spec(fmt.Sprintf("%dD_Q91", d), d, q91SQL, q91EPPs[:d]...)
}

// TPCDSQueries returns the full evaluation suite of Fig. 8/10/11/13.
func TPCDSQueries() []Spec {
	return []Spec{
		// 3D_Q15: catalog sales shipped to customers by address and date.
		spec("3D_Q15", 3, `
			SELECT *
			FROM catalog_sales cs, customer c, customer_address ca, date_dim d
			WHERE cs.cs_bill_customer_sk = c.c_customer_sk
			  AND c.c_current_addr_sk = ca.ca_address_sk
			  AND cs.cs_sold_date_sk = d.d_date_sk
			  AND d.d_qoy = 1 AND d.d_year = 2001`,
			"cs.cs_bill_customer_sk = c.c_customer_sk",
			"c.c_current_addr_sk = ca.ca_address_sk",
			"cs.cs_sold_date_sk = d.d_date_sk",
		),
		// 3D_Q96: store sales by household demographics, time of day and
		// store.
		spec("3D_Q96", 3, `
			SELECT *
			FROM store_sales ss, household_demographics hd, time_dim t, store s
			WHERE ss.ss_hdemo_sk = hd.hd_demo_sk
			  AND ss.ss_sold_time_sk = t.t_time_sk
			  AND ss.ss_store_sk = s.s_store_sk
			  AND t.t_hour = 20 AND hd.hd_dep_count = 7`,
			"ss.ss_hdemo_sk = hd.hd_demo_sk",
			"ss.ss_sold_time_sk = t.t_time_sk",
			"ss.ss_store_sk = s.s_store_sk",
		),
		// 4D_Q7: store sales star over demographics, date, item, promotion.
		spec("4D_Q7", 4, `
			SELECT *
			FROM store_sales ss, customer_demographics cd, date_dim d, item i, promotion p
			WHERE ss.ss_cdemo_sk = cd.cd_demo_sk
			  AND ss.ss_sold_date_sk = d.d_date_sk
			  AND ss.ss_item_sk = i.i_item_sk
			  AND ss.ss_promo_sk = p.p_promo_sk
			  AND cd.cd_gender = 1 AND cd.cd_marital_status = 2
			  AND d.d_year = 2000`,
			"ss.ss_cdemo_sk = cd.cd_demo_sk",
			"ss.ss_sold_date_sk = d.d_date_sk",
			"ss.ss_item_sk = i.i_item_sk",
			"ss.ss_promo_sk = p.p_promo_sk",
		),
		// 4D_Q26: the catalog-side mirror of Q7 (the paper's Fig. 4 plan).
		spec("4D_Q26", 4, `
			SELECT *
			FROM catalog_sales cs, customer_demographics cd, date_dim d, item i, promotion p
			WHERE cs.cs_bill_cdemo_sk = cd.cd_demo_sk
			  AND cs.cs_sold_date_sk = d.d_date_sk
			  AND cs.cs_item_sk = i.i_item_sk
			  AND cs.cs_promo_sk = p.p_promo_sk
			  AND cd.cd_gender = 2 AND cd.cd_education_status = 3
			  AND d.d_year = 2000`,
			"cs.cs_bill_cdemo_sk = cd.cd_demo_sk",
			"cs.cs_sold_date_sk = d.d_date_sk",
			"cs.cs_item_sk = i.i_item_sk",
			"cs.cs_promo_sk = p.p_promo_sk",
		),
		// 4D_Q27: store sales over demographics, date, store, item.
		spec("4D_Q27", 4, `
			SELECT *
			FROM store_sales ss, customer_demographics cd, date_dim d, store s, item i
			WHERE ss.ss_cdemo_sk = cd.cd_demo_sk
			  AND ss.ss_sold_date_sk = d.d_date_sk
			  AND ss.ss_store_sk = s.s_store_sk
			  AND ss.ss_item_sk = i.i_item_sk
			  AND cd.cd_gender = 1 AND d.d_year = 2002 AND s.s_state = 3`,
			"ss.ss_cdemo_sk = cd.cd_demo_sk",
			"ss.ss_sold_date_sk = d.d_date_sk",
			"ss.ss_store_sk = s.s_store_sk",
			"ss.ss_item_sk = i.i_item_sk",
		),
		Q91(4),
		// 5D_Q19: store sales with brand/item, date, customer, address,
		// store.
		spec("5D_Q19", 5, `
			SELECT *
			FROM store_sales ss, date_dim d, item i, customer c, customer_address ca, store s
			WHERE ss.ss_sold_date_sk = d.d_date_sk
			  AND ss.ss_item_sk = i.i_item_sk
			  AND ss.ss_customer_sk = c.c_customer_sk
			  AND c.c_current_addr_sk = ca.ca_address_sk
			  AND ss.ss_store_sk = s.s_store_sk
			  AND i.i_manufact_id = 7 AND d.d_moy = 11 AND d.d_year = 1999`,
			"ss.ss_sold_date_sk = d.d_date_sk",
			"ss.ss_item_sk = i.i_item_sk",
			"ss.ss_customer_sk = c.c_customer_sk",
			"c.c_current_addr_sk = ca.ca_address_sk",
			"ss.ss_store_sk = s.s_store_sk",
		),
		// 5D_Q29: the multi-fact chain store_sales — store_returns —
		// catalog_sales with item, date and store dimensions.
		spec("5D_Q29", 5, `
			SELECT *
			FROM store_sales ss, store_returns sr, catalog_sales cs, date_dim d, item i, store s
			WHERE ss.ss_item_sk = i.i_item_sk
			  AND sr.sr_ticket_number = ss.ss_ticket_number
			  AND cs.cs_bill_customer_sk = sr.sr_customer_sk
			  AND ss.ss_sold_date_sk = d.d_date_sk
			  AND ss.ss_store_sk = s.s_store_sk
			  AND d.d_moy = 9 AND d.d_year = 1999`,
			"ss.ss_item_sk = i.i_item_sk",
			"sr.sr_ticket_number = ss.ss_ticket_number",
			"cs.cs_bill_customer_sk = sr.sr_customer_sk",
			"ss.ss_sold_date_sk = d.d_date_sk",
			"ss.ss_store_sk = s.s_store_sk",
		),
		// 5D_Q84: customer-centric chain over address, demographics,
		// household demographics and store returns.
		spec("5D_Q84", 5, `
			SELECT *
			FROM customer c, customer_address ca, customer_demographics cd,
			     household_demographics hd, store_returns sr, reason r
			WHERE c.c_current_addr_sk = ca.ca_address_sk
			  AND c.c_current_cdemo_sk = cd.cd_demo_sk
			  AND c.c_current_hdemo_sk = hd.hd_demo_sk
			  AND sr.sr_cdemo_sk = cd.cd_demo_sk
			  AND sr.sr_reason_sk = r.r_reason_sk
			  AND ca.ca_city = 192 AND hd.hd_income_band_sk = 8`,
			"c.c_current_addr_sk = ca.ca_address_sk",
			"c.c_current_cdemo_sk = cd.cd_demo_sk",
			"c.c_current_hdemo_sk = hd.hd_demo_sk",
			"sr.sr_cdemo_sk = cd.cd_demo_sk",
			"sr.sr_reason_sk = r.r_reason_sk",
		),
		// 6D_Q18: catalog sales star with customer branch.
		spec("6D_Q18", 6, `
			SELECT *
			FROM catalog_sales cs, customer_demographics cd, customer c,
			     customer_address ca, date_dim d, item i, household_demographics hd
			WHERE cs.cs_bill_cdemo_sk = cd.cd_demo_sk
			  AND cs.cs_bill_customer_sk = c.c_customer_sk
			  AND c.c_current_addr_sk = ca.ca_address_sk
			  AND cs.cs_sold_date_sk = d.d_date_sk
			  AND cs.cs_item_sk = i.i_item_sk
			  AND c.c_current_hdemo_sk = hd.hd_demo_sk
			  AND cd.cd_gender = 2 AND cd.cd_education_status = 5
			  AND d.d_year = 1998 AND c.c_birth_month = 1`,
			"cs.cs_bill_cdemo_sk = cd.cd_demo_sk",
			"cs.cs_bill_customer_sk = c.c_customer_sk",
			"c.c_current_addr_sk = ca.ca_address_sk",
			"cs.cs_sold_date_sk = d.d_date_sk",
			"cs.cs_item_sk = i.i_item_sk",
			"c.c_current_hdemo_sk = hd.hd_demo_sk",
		),
		Q91(6),
	}
}

// Q25 returns the TPC-DS Query 25 analogue the paper uses to illustrate
// PlanBouquet's platform dependence (Sec 1.1.3: "PlanBouquet's MSO
// guarantee of 24 under PostgreSQL shot up ... to 36 for a commercial
// engine"): the store_sales / store_returns / catalog_sales multi-fact
// chain with item and store dimensions, 4 epps.
func Q25() Spec {
	return spec("4D_Q25", 4, `
		SELECT *
		FROM store_sales ss, store_returns sr, catalog_sales cs, item i, store s, date_dim d
		WHERE ss.ss_item_sk = i.i_item_sk
		  AND sr.sr_ticket_number = ss.ss_ticket_number
		  AND cs.cs_bill_customer_sk = sr.sr_customer_sk
		  AND ss.ss_store_sk = s.s_store_sk
		  AND ss.ss_sold_date_sk = d.d_date_sk
		  AND d.d_moy = 4 AND d.d_year = 2000`,
		"ss.ss_item_sk = i.i_item_sk",
		"sr.sr_ticket_number = ss.ss_ticket_number",
		"cs.cs_bill_customer_sk = sr.sr_customer_sk",
		"ss.ss_store_sk = s.s_store_sk",
	)
}

// EQ returns the paper's motivating example query (Fig. 1): orders placed
// for cheap parts, over the TPC-H schema, with the two join predicates
// error-prone (the filter on p_retailprice is assumed reliably estimated).
func EQ() Spec {
	return Spec{
		Name: "2D_EQ", D: 2, Catalog: "tpch",
		SQL: `
			SELECT * FROM part p, lineitem l, orders o
			WHERE p.p_partkey = l.l_partkey
			  AND o.o_orderkey = l.l_orderkey
			  AND p.p_retailprice < 1000`,
		EPPs: []string{
			"p.p_partkey = l.l_partkey",
			"o.o_orderkey = l.l_orderkey",
		},
		GridRes: 24, GridLo: gridLo,
	}
}

// JOB1a returns the Join Order Benchmark Q1a analogue over the IMDB-shaped
// catalog (Sec 6.5). Its implicit cyclic predicate (mc.movie_id =
// mi_idx.movie_id) is omitted, matching the paper's work-around of shutting
// off the optimizer's automatic inclusion of implicit join predicates.
func JOB1a() Spec {
	return Spec{
		Name: "JOB_1a", D: 2, Catalog: "imdb",
		SQL: `
			SELECT *
			FROM company_type ct, info_type it, movie_companies mc,
			     movie_info_idx mi_idx, title t
			WHERE mc.company_type_id = ct.id
			  AND mc.movie_id = t.id
			  AND mi_idx.movie_id = t.id
			  AND mi_idx.info_type_id = it.id
			  AND ct.kind = 2 AND it.info = 112
			  AND t.production_year > 1950`,
		EPPs: []string{
			"mc.movie_id = t.id",
			"mi_idx.movie_id = t.id",
		},
		GridRes: 24, GridLo: gridLo,
	}
}

// ChaosFail returns a spec whose build always fails: the query references
// tables absent from every catalog, so binding errors out immediately. It is
// deliberately excluded from All(), and so from every query listing — it
// exists for resilience drills (the replay drill's circuit-breaker phase,
// cmd/drill) that need a session build to fail on demand against a real
// daemon.
func ChaosFail() Spec {
	return Spec{
		Name: "CHAOS_FAIL", D: 2, Catalog: "tpcds",
		SQL: `
			SELECT * FROM no_such_table x, also_missing y
			WHERE x.a = y.b`,
		EPPs:    []string{"x.a = y.b"},
		GridRes: 4, GridLo: gridLo,
	}
}

// All returns every public benchmark query exactly once, in listing order:
// the evaluation suite, the Q91 dimensional variants it does not already
// hold, Q25, EQ and JOB_1a. It is the one table behind ByName, rqp -list and
// GET /v1/queries.
func All() []Spec {
	out := TPCDSQueries()
	for _, d := range []int{2, 3, 5} { // 4D and 6D Q91 are suite members
		out = append(out, Q91(d))
	}
	return append(out, Q25(), EQ(), JOB1a())
}

// ByName returns the listed query with the given name, or the hidden
// CHAOS_FAIL drill spec, which resolves but is never listed.
func ByName(name string) (Spec, bool) {
	for _, sp := range append(All(), ChaosFail()) {
		if sp.Name == name {
			return sp, true
		}
	}
	return Spec{}, false
}

// Names returns the names of All, in listing order.
func Names() []string {
	var out []string
	for _, sp := range All() {
		out = append(out, sp.Name)
	}
	return out
}
