// Command rqp runs a single benchmark query under one of the robust query
// processing algorithms and prints the discovery trace (the Manhattan
// profile of paper Fig. 7 in textual form), the MSO guarantee, and the
// realized sub-optimality.
//
// Usage:
//
//	rqp -query 4D_Q91 -algo spillbound -truth 0.8,0.008,0.05,0.6
//	rqp -list
//	rqp atlas -query 2D_EQ -algos spillbound -o atlas.svg
//
// Every run goes through the library Session and its strategies, so
// the output equals what rqpd's /v1 API returns for the same query and
// truth. The atlas subcommand sweeps a seeded error-regime scenario suite
// and dumps the per-regime robustness atlas (see rqp atlas -h).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	repro "repro"
	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/optimizer"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "rqp:", err)
		os.Exit(1)
	}
}

// run is the whole command: it parses args, writes the run's output to
// stdout and its progress commentary to stderr (-json) or stdout (text).
func run(args []string, stdout, stderr io.Writer) error {
	// Subcommand dispatch before flag parsing: `rqp atlas ...` has its own
	// flag set.
	if len(args) > 0 && args[0] == "atlas" {
		if err := atlasMain(args[1:], stdout, stderr); err != nil {
			return fmt.Errorf("atlas: %w", err)
		}
		return nil
	}
	fs := flag.NewFlagSet("rqp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		queryName = fs.String("query", "2D_Q91", "benchmark query name (see -list)")
		algoName  = fs.String("algo", "spillbound", "strategy name (see -strategies)")
		stratList = fs.Bool("strategies", false, "list the strategies (name, kind, guarantee) and exit")
		truthStr  = fs.String("truth", "", "comma-separated true selectivities (default: midpoint of each dimension)")
		res       = fs.Int("res", 0, "grid resolution override (0 = query default)")
		profile   = fs.String("profile", "postgres", "cost profile: postgres | commercial")
		list      = fs.Bool("list", false, "list available queries and exit")
		sf        = fs.Float64("sf", 100, "TPC-DS scale factor")
		plot      = fs.Bool("plot", false, "render the 2D contour map with the run's Manhattan discovery profile (2D queries)")
		explain   = fs.Bool("explain", false, "print the optimal plan at q_a with per-operator rows/costs and its pipeline decomposition")
		physical  = fs.Int64("physical", -1, "execute on the row engine with this per-relation row cap (0 = catalog cardinality); truth is then emergent from the data")
		jsonOut   = fs.Bool("json", false, "emit the run as one JSON document (typed telemetry events instead of the textual trace)")
		spansOut  = fs.Bool("trace", false, "print the structural span tree derived from the run's telemetry (the same tree rqpd serves at /v1/runs/{traceID}/trace)")
		sqlText   = fs.String("sql", "", "process a custom SQL query instead of a benchmark one (requires -catalog unless the TPC-DS schema suffices)")
		catPath   = fs.String("catalog", "", "JSON catalog file for -sql (default: TPC-DS at -sf)")
		eppsFlag  = fs.String("epps", "", "semicolon-separated error-prone join predicates for -sql (default: auto-identified, up to -d of them)")
		dFlag     = fs.Int("d", 2, "number of epps to auto-identify when -epps is empty")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *stratList {
		for _, in := range repro.Strategies() {
			fmt.Fprintf(stdout, "%-14s %-10s guarantee: %s\n", in.Name, in.Kind, in.Guarantee)
		}
		return nil
	}
	if *list {
		for _, name := range workload.Names() {
			fmt.Fprintln(stdout, name)
		}
		return nil
	}

	var (
		sp  workload.Spec
		cat *repro.Catalog
		err error
	)
	if *sqlText != "" {
		sp, cat, err = customSpec(stdout, *sqlText, *catPath, *eppsFlag, *dFlag, *sf)
	} else {
		sp, cat, err = benchmarkSpec(*queryName, *sf)
	}
	if err != nil {
		return err
	}
	opts := repro.DefaultOptions()
	switch *profile {
	case "postgres":
	case "commercial":
		opts.Params = repro.CommercialProfile()
	default:
		return fmt.Errorf("unknown profile %q", *profile)
	}
	st, err := repro.ParseStrategy(*algoName)
	if err != nil {
		return err
	}
	algo := repro.Algorithm(*algoName)
	opts.GridRes = *res
	if opts.GridRes == 0 {
		opts.GridRes = sp.GridRes
	}
	if sp.GridLo > 0 {
		opts.GridLo = sp.GridLo
	}

	// With -json the progress commentary moves to stderr so stdout carries
	// exactly one machine-readable document.
	info := stdout
	if *jsonOut {
		info = stderr
	}
	fmt.Fprintf(info, "building ESS for %s (D=%d, %d^%d grid, profile %s)...\n",
		sp.Name, sp.D, opts.GridRes, sp.D, opts.Params.Name)
	sess, err := repro.NewSession(cat, sp.SQL, sp.EPPs, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(info, "POSP: %d plans | contours: %d\n\n", sess.POSPSize(), sess.ContourCount())
	doc := runDoc{
		Query: sp.Name, Algorithm: algo.String(), D: sess.D(), GridRes: opts.GridRes,
		POSPSize: sess.POSPSize(), Contours: sess.ContourCount(),
	}

	var out repro.RunResult
	if *physical >= 0 {
		fmt.Fprintln(info, "physical execution over synthetic rows:")
		if out, err = sess.RunPhysical(algo, *physical); err != nil {
			return err
		}
	} else {
		truth, err := parseTruth(*truthStr, sess.D(), opts.GridLo)
		if err != nil {
			return err
		}
		doc.Truth = truth
		fmt.Fprintf(info, "true location q_a = %v\n", truth)
		if *explain && !*jsonOut {
			if err := explainAt(stdout, sp, cat, opts.Params, truth); err != nil {
				return err
			}
		}
		if g := sess.Guarantee(algo); !math.IsInf(g, 1) {
			doc.Guarantee = g
			fmt.Fprintf(info, "%s guarantee: %s = %.4g\n\n", algo, st.Info().Guarantee, g)
		}
		if out, err = sess.RunContext(context.Background(), algo, truth); err != nil {
			return err
		}
		if *plot && !*jsonOut {
			if mapped, err := sess.RenderRun(algo, truth); err == nil {
				fmt.Fprintln(stdout, mapped)
			} else {
				fmt.Fprintln(stderr, "rqp: plot:", err)
			}
		}
	}
	doc.TotalCost, doc.OptimalCost, doc.SubOpt = out.TotalCost, out.OptimalCost, out.SubOpt
	doc.Trace, doc.Events = out.Trace, out.Events
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	}
	fmt.Fprint(stdout, out.Trace)
	if *spansOut {
		fmt.Fprintln(stdout, "\nspan tree:")
		fmt.Fprint(stdout, trace.RenderText(trace.FromRun(out.TraceID, out.Events)))
	}
	fmt.Fprintf(stdout, "\ntotal cost: %.4g | optimal cost: %.4g | sub-optimality: %.2f\n",
		out.TotalCost, out.OptimalCost, out.SubOpt)
	return nil
}

// runDoc is the -json output document: the run's identity, guarantees,
// realized costs, and the full typed event stream.
type runDoc struct {
	Query       string            `json:"query"`
	Algorithm   string            `json:"algorithm"`
	D           int               `json:"d"`
	GridRes     int               `json:"gridRes"`
	Truth       []float64         `json:"truth,omitempty"`
	POSPSize    int               `json:"pospSize"`
	Contours    int               `json:"contours"`
	Guarantee   float64           `json:"guarantee,omitempty"`
	TotalCost   float64           `json:"totalCost"`
	OptimalCost float64           `json:"optimalCost,omitempty"`
	SubOpt      float64           `json:"subOpt,omitempty"`
	Trace       string            `json:"trace"`
	Events      []telemetry.Event `json:"events"`
}

// benchmarkSpec resolves a listed benchmark query and its catalog.
func benchmarkSpec(name string, sf float64) (workload.Spec, *repro.Catalog, error) {
	sp, ok := workload.ByName(name)
	if !ok {
		return sp, nil, fmt.Errorf("unknown query %q (use -list)", name)
	}
	switch sp.Catalog {
	case "imdb":
		return sp, repro.IMDBCatalog(), nil
	case "tpch":
		return sp, repro.TPCHCatalog(sf / 100), nil
	default:
		return sp, repro.TPCDSCatalog(sf), nil
	}
}

// customSpec turns a user-supplied SQL query into a spec: load (or default)
// the catalog and resolve or auto-identify the epps.
func customSpec(stdout io.Writer, sqlText, catPath, eppsFlag string, d int, sf float64) (workload.Spec, *repro.Catalog, error) {
	sp := workload.Spec{Name: "custom", SQL: sqlText, GridRes: 12, GridLo: 1e-6}
	var cat *repro.Catalog
	if catPath == "" {
		cat = repro.TPCDSCatalog(sf)
	} else {
		f, err := os.Open(catPath)
		if err != nil {
			return sp, nil, err
		}
		defer f.Close()
		if cat, err = catalog.ReadJSON(f); err != nil {
			return sp, nil, err
		}
	}
	if eppsFlag != "" {
		for _, p := range strings.Split(eppsFlag, ";") {
			if p = strings.TrimSpace(p); p != "" {
				sp.EPPs = append(sp.EPPs, p)
			}
		}
	} else {
		var err error
		if sp.EPPs, err = repro.IdentifyEPPs(cat, sqlText, d); err != nil {
			return sp, nil, err
		}
		fmt.Fprintf(stdout, "auto-identified epps: %v\n", sp.EPPs)
	}
	sp.D = len(sp.EPPs)
	return sp, cat, nil
}

// explainAt prints the optimal plan at the truth with its per-operator
// rows/costs and pipeline decomposition. The model it builds is for display
// only; the run itself goes through the session.
func explainAt(w io.Writer, sp workload.Spec, cat *repro.Catalog, params cost.Params, truth cost.Location) error {
	q, err := sp.Build(cat)
	if err != nil {
		return err
	}
	m, err := cost.NewModel(q, params)
	if err != nil {
		return err
	}
	o, err := optimizer.New(m)
	if err != nil {
		return err
	}
	p, _ := o.Optimize(truth)
	fmt.Fprintln(w, "\noptimal plan at q_a:")
	fmt.Fprint(w, engine.ExplainAt(m, p, truth))
	fmt.Fprintln(w, "pipelines (execution order):")
	fmt.Fprint(w, engine.ExplainPipelines(m, p))
	fmt.Fprintln(w)
	return nil
}

func parseTruth(s string, d int, lo float64) (cost.Location, error) {
	if s == "" {
		// Default: geometric midpoint of each dimension.
		mid := make(cost.Location, d)
		for i := range mid {
			mid[i] = math.Sqrt(lo)
		}
		return mid, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != d {
		return nil, fmt.Errorf("-truth needs %d values, got %d", d, len(parts))
	}
	out := make(cost.Location, d)
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad selectivity %q: %v", p, err)
		}
		if v <= 0 || v > 1 {
			return nil, fmt.Errorf("selectivity %g outside (0,1]", v)
		}
		out[i] = v
	}
	return out, nil
}
