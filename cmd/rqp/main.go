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
// The atlas subcommand sweeps a seeded error-regime scenario suite and dumps
// the per-regime robustness atlas (see rqp atlas -h).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	repro "repro"
	"repro/internal/aligned"
	"repro/internal/bouquet"
	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/ess"
	"repro/internal/optimizer"
	"repro/internal/query"
	"repro/internal/rowexec"
	"repro/internal/spillbound"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/viz"
	"repro/internal/workload"
)

func main() {
	var (
		queryName = flag.String("query", "2D_Q91", "benchmark query name (see -list)")
		algoName  = flag.String("algo", "spillbound", "strategy name (see -strategies)")
		stratList = flag.Bool("strategies", false, "list registered strategies (name, kind, guarantee) and exit")
		truthStr  = flag.String("truth", "", "comma-separated true selectivities (default: midpoint of each dimension)")
		res       = flag.Int("res", 0, "grid resolution override (0 = query default)")
		profile   = flag.String("profile", "postgres", "cost profile: postgres | commercial")
		list      = flag.Bool("list", false, "list available queries and exit")
		sf        = flag.Float64("sf", 100, "TPC-DS scale factor")
		plot      = flag.Bool("plot", false, "render the 2D contour map with the discovery trace (2D queries, spillbound only)")
		explain   = flag.Bool("explain", false, "print the optimal plan at q_a with per-operator rows/costs and its pipeline decomposition")
		physical  = flag.Int64("physical", -1, "execute on the row engine with this per-relation row cap (0 = catalog cardinality); truth is then emergent from the data")
		jsonOut   = flag.Bool("json", false, "emit the run as one JSON document (typed telemetry events instead of the textual trace)")
		spansOut  = flag.Bool("trace", false, "print the structural span tree derived from the run's telemetry (the same tree rqpd serves at /v1/runs/{traceID}/trace)")
		sqlText   = flag.String("sql", "", "process a custom SQL query instead of a benchmark one (requires -catalog unless the TPC-DS schema suffices)")
		catPath   = flag.String("catalog", "", "JSON catalog file for -sql (default: TPC-DS at -sf)")
		eppsFlag  = flag.String("epps", "", "semicolon-separated error-prone join predicates for -sql (default: auto-identified, up to -d of them)")
		dFlag     = flag.Int("d", 2, "number of epps to auto-identify when -epps is empty")
	)
	// Subcommand dispatch before flag.Parse: `rqp atlas ...` has its own
	// flag set.
	if len(os.Args) > 1 && os.Args[1] == "atlas" {
		if err := atlasMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "rqp atlas:", err)
			os.Exit(1)
		}
		return
	}
	flag.Parse()

	if *stratList {
		for _, in := range repro.Strategies() {
			fmt.Printf("%-14s %-10s guarantee: %s\n", in.Name, in.Kind, in.Guarantee)
		}
		return
	}
	if *list {
		for _, name := range workload.Names() {
			fmt.Println(name)
		}
		for d := 2; d <= 6; d++ {
			fmt.Println(workload.Q91(d).Name)
		}
		fmt.Println("JOB_1a")
		return
	}

	if *sqlText != "" {
		if err := runCustom(*sqlText, *catPath, *eppsFlag, *dFlag, *algoName, *truthStr, *res, *profile, *sf, *plot, *explain, *physical, *jsonOut, *spansOut); err != nil {
			fmt.Fprintln(os.Stderr, "rqp:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*queryName, *algoName, *truthStr, *res, *profile, *sf, *plot, *explain, *physical, *jsonOut, *spansOut); err != nil {
		fmt.Fprintln(os.Stderr, "rqp:", err)
		os.Exit(1)
	}
}

// printSpanTree renders the structural span tree derived from the run's
// event stream — the CLI twin of rqpd's GET /v1/runs/{traceID}/trace. The
// tree's shape and span IDs are deterministic given the trace ID; a local
// run without one gets a fresh random trace identity.
func printSpanTree(traceID string, events []telemetry.Event) {
	if traceID == "" {
		traceID = trace.New().TraceID
	}
	fmt.Println("\nspan tree:")
	fmt.Print(trace.RenderText(trace.FromRun(traceID, events)))
}

// runCustom processes a user-supplied SQL query: load (or default) the
// catalog, resolve or auto-identify the epps, synthesize a workload spec
// and reuse the benchmark path.
func runCustom(sqlText, catPath, eppsFlag string, d int, algoName, truthStr string, res int, profile string, sf float64, plot, explain bool, physical int64, jsonOut, spansOut bool) error {
	var cat *repro.Catalog
	if catPath != "" {
		f, err := os.Open(catPath)
		if err != nil {
			return err
		}
		defer f.Close()
		cat, err = catalog.ReadJSON(f)
		if err != nil {
			return err
		}
	} else {
		cat = repro.TPCDSCatalog(sf)
	}
	var epps []string
	if eppsFlag != "" {
		for _, p := range strings.Split(eppsFlag, ";") {
			if p = strings.TrimSpace(p); p != "" {
				epps = append(epps, p)
			}
		}
	} else {
		var err error
		epps, err = repro.IdentifyEPPs(cat, sqlText, d)
		if err != nil {
			return err
		}
		fmt.Printf("auto-identified epps: %v\n", epps)
	}
	if res == 0 {
		res = 12
	}
	sp := workload.Spec{
		Name: "custom", D: len(epps), SQL: sqlText, EPPs: epps,
		GridRes: res, GridLo: 1e-6,
	}
	return runSpec(sp, cat, algoName, truthStr, res, profile, plot, explain, physical, jsonOut, spansOut)
}

func run(queryName, algoName, truthStr string, res int, profile string, sf float64, plot, explain bool, physical int64, jsonOut, spansOut bool) error {
	sp, ok := workload.ByName(queryName)
	if !ok {
		return fmt.Errorf("unknown query %q (use -list)", queryName)
	}
	var cat *repro.Catalog
	switch sp.Catalog {
	case "imdb":
		cat = repro.IMDBCatalog()
	case "tpch":
		cat = repro.TPCHCatalog(sf / 100)
	default:
		cat = repro.TPCDSCatalog(sf)
	}
	return runSpec(sp, cat, algoName, truthStr, res, profile, plot, explain, physical, jsonOut, spansOut)
}

// runSpec drives one spec over one catalog.
func runSpec(sp workload.Spec, cat *repro.Catalog, algoName, truthStr string, res int, profile string, plot, explain bool, physical int64, jsonOut, spansOut bool) error {
	var params cost.Params
	switch profile {
	case "postgres":
		params = cost.PostgresLike()
	case "commercial":
		params = cost.CommercialLike()
	default:
		return fmt.Errorf("unknown profile %q", profile)
	}
	if _, err := repro.ParseStrategy(algoName); err != nil {
		return err
	}
	algo := repro.Algorithm(algoName)
	switch algo {
	case repro.Native, repro.PlanBouquet, repro.SpillBound, repro.AlignedBound:
	default:
		// Any other registered strategy (the selection family, external
		// registrations) runs through the library session, which owns the
		// budget-doubling ladder and its telemetry.
		if physical >= 0 {
			return fmt.Errorf("-physical supports planbouquet, spillbound, alignedbound")
		}
		return runRegistered(sp, cat, algo, truthStr, res, profile, jsonOut, spansOut)
	}
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
	if res == 0 {
		res = sp.GridRes
	}
	// With -json the progress commentary moves to stderr so stdout carries
	// exactly one machine-readable document.
	info := fmt.Printf
	if jsonOut {
		info = func(format string, args ...any) (int, error) {
			return fmt.Fprintf(os.Stderr, format, args...)
		}
	}
	info("building ESS for %s (D=%d, %d^%d grid, profile %s)...\n",
		sp.Name, sp.D, res, sp.D, params.Name)
	s := ess.Build(o, ess.NewGrid(q.D(), res, sp.GridLo))
	costs := s.ContourCosts(ess.CostDoublingRatio)
	info("POSP: %d plans | contours: %d | C_min=%.4g C_max=%.4g\n\n",
		len(s.Plans()), len(costs), s.MinCost(), s.MaxCost())

	if physical >= 0 {
		return runPhysical(sp, q, m, s, algo, physical, jsonOut, spansOut)
	}
	truth, err := parseTruth(truthStr, q.D(), sp.GridLo)
	if err != nil {
		return err
	}
	info("true location q_a = %v\n", truth)
	optPlan, optCost := o.Optimize(truth)
	e := engine.New(m, truth)
	if explain && !jsonOut {
		fmt.Println("\noptimal plan at q_a:")
		fmt.Print(engine.ExplainAt(m, optPlan, truth))
		fmt.Println("pipelines (execution order):")
		fmt.Print(engine.ExplainPipelines(m, optPlan))
		fmt.Println()
	}

	// The discovery layers emit typed telemetry events into the
	// context-carried recorder; the textual trace is their rendering.
	rec := telemetry.NewRecorder()
	ctx := telemetry.With(context.Background(), rec)
	var total, guarantee float64
	switch algo {
	case repro.Native:
		p, _ := o.Optimize(m.EstimateLocation())
		total = m.Eval(p, truth)
		rec.Record(telemetry.Event{
			Kind: telemetry.PlanExec, Dim: -1, Mode: "native",
			Location: m.EstimateLocation(), Spent: total, Completed: true,
		})
	case repro.PlanBouquet:
		d := bouquet.Reduce(s, 0.2)
		guarantee = d.Guarantee(costs)
		info("PlanBouquet guarantee: 4(1+λ)ρ = %.1f\n\n", guarantee)
		out, err := bouquet.RunContext(ctx, d, e, ess.CostDoublingRatio)
		if err != nil {
			return err
		}
		total = out.TotalCost
	case repro.SpillBound:
		guarantee = spillbound.Guarantee(q.D())
		info("SpillBound guarantee: D²+3D = %.0f\n\n", guarantee)
		out, err := (&spillbound.Runner{Space: s, Ratio: ess.CostDoublingRatio}).RunContext(ctx, e)
		if err != nil {
			return err
		}
		total = out.TotalCost
		if plot && !jsonOut {
			if mapped, err := viz.Fig7(s, ess.CostDoublingRatio, out, truth); err == nil {
				fmt.Println(mapped)
			} else {
				fmt.Fprintln(os.Stderr, "rqp: plot:", err)
			}
		}
	case repro.AlignedBound:
		guarantee = aligned.GuaranteeUpper(q.D())
		info("AlignedBound guarantee range: [%.0f, %.0f]\n\n",
			aligned.GuaranteeLower(q.D()), guarantee)
		out, err := (&aligned.Runner{Space: s, Ratio: ess.CostDoublingRatio}).RunContext(ctx, e)
		if err != nil {
			return err
		}
		total = out.TotalCost
		if plot && !jsonOut {
			if mapped, err := viz.Fig7(s, ess.CostDoublingRatio, out.SpillOutcome(), truth); err == nil {
				fmt.Println(mapped)
			} else {
				fmt.Fprintln(os.Stderr, "rqp: plot:", err)
			}
		}
	}
	rec.Record(telemetry.Event{
		Kind: telemetry.Done, Dim: -1, Algorithm: algo.String(),
		TotalCost: total, SubOpt: total / optCost, Completed: true,
	})
	events := rec.Events()
	if jsonOut {
		return writeRunJSON(runDoc{
			Query: sp.Name, Algorithm: algo.String(), D: q.D(), GridRes: res,
			Truth: truth, POSPSize: len(s.Plans()), Contours: len(costs),
			Guarantee: guarantee, TotalCost: total, OptimalCost: optCost,
			SubOpt: total / optCost,
			Trace:  telemetry.RenderTrace(events), Events: events,
		})
	}
	if algo == repro.Native {
		fmt.Printf("plan chosen at estimate %v\n", m.EstimateLocation())
	} else {
		fmt.Print(telemetry.RenderTrace(events))
	}
	if spansOut {
		printSpanTree("", events)
	}
	fmt.Printf("\ntotal cost: %.4g | optimal cost: %.4g | sub-optimality: %.2f\n",
		total, optCost, total/optCost)
	return nil
}

// runRegistered drives a non-builtin registered strategy through the full
// library session instead of the manual discovery path above: the session
// owns the selection strategies' budget-doubling ladder, their telemetry,
// and the degradation ladder the CLI would otherwise have to replicate.
func runRegistered(sp workload.Spec, cat *repro.Catalog, algo repro.Algorithm, truthStr string, res int, profile string, jsonOut, spansOut bool) error {
	opts := repro.DefaultOptions()
	switch profile {
	case "postgres":
	case "commercial":
		opts.Params = repro.CommercialProfile()
	default:
		return fmt.Errorf("unknown profile %q", profile)
	}
	if res == 0 {
		res = sp.GridRes
	}
	opts.GridRes = res
	if sp.GridLo > 0 {
		opts.GridLo = sp.GridLo
	}
	info := fmt.Printf
	if jsonOut {
		info = func(format string, args ...any) (int, error) {
			return fmt.Fprintf(os.Stderr, format, args...)
		}
	}
	info("building ESS for %s (D=%d, %d^%d grid, profile %s)...\n",
		sp.Name, sp.D, res, sp.D, opts.Params.Name)
	sess, err := repro.NewSession(cat, sp.SQL, sp.EPPs, opts)
	if err != nil {
		return err
	}
	info("POSP: %d plans | contours: %d\n\n", sess.POSPSize(), sess.ContourCount())
	truth, err := parseTruth(truthStr, sess.D(), opts.GridLo)
	if err != nil {
		return err
	}
	info("true location q_a = %v\n", truth)
	out, err := sess.RunContext(context.Background(), algo, repro.Location(truth))
	if err != nil {
		return err
	}
	if jsonOut {
		doc := runDoc{
			Query: sp.Name, Algorithm: algo.String(), D: sess.D(), GridRes: res,
			Truth: truth, POSPSize: sess.POSPSize(), Contours: sess.ContourCount(),
			TotalCost: out.TotalCost, OptimalCost: out.OptimalCost, SubOpt: out.SubOpt,
			Trace: out.Trace, Events: out.Events,
		}
		if g := sess.Guarantee(algo); !math.IsInf(g, 1) {
			doc.Guarantee = g
		}
		return writeRunJSON(doc)
	}
	fmt.Print(out.Trace)
	if spansOut {
		printSpanTree(out.TraceID, out.Events)
	}
	fmt.Printf("\ntotal cost: %.4g | optimal cost: %.4g | sub-optimality: %.2f\n",
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

func writeRunJSON(doc runDoc) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// runPhysical drives the chosen algorithm against the row engine.
func runPhysical(sp workload.Spec, q *query.Query, m *cost.Model, s *ess.Space, algo repro.Algorithm, rowCap int64, jsonOut, spansOut bool) error {
	re := &rowexec.Engine{Query: q, Params: m.Params, RowCap: rowCap}
	ad := &rowexec.Adapter{E: re}
	rec := telemetry.NewRecorder()
	ctx := telemetry.With(context.Background(), rec)
	var total float64
	var runErr error
	switch algo {
	case repro.PlanBouquet:
		out, err := bouquet.RunContext(ctx, bouquet.Reduce(s, 0.2), ad, ess.CostDoublingRatio)
		total, runErr = out.TotalCost, err
	case repro.SpillBound:
		out, err := (&spillbound.Runner{Space: s, Ratio: ess.CostDoublingRatio}).RunContext(ctx, ad)
		total, runErr = out.TotalCost, err
	case repro.AlignedBound:
		out, err := (&aligned.Runner{Space: s, Ratio: ess.CostDoublingRatio}).RunContext(ctx, ad)
		total, runErr = out.TotalCost, err
	default:
		return fmt.Errorf("-physical supports planbouquet, spillbound, alignedbound")
	}
	if runErr != nil {
		return runErr
	}
	best := -1.0
	for _, p := range s.Plans() {
		if r, err := re.Run(p, 0); err == nil && r.Completed {
			if best < 0 || r.Spent < best {
				best = r.Spent
			}
		}
	}
	done := telemetry.Event{
		Kind: telemetry.Done, Dim: -1, Algorithm: algo.String(),
		TotalCost: total, Completed: true,
	}
	if best > 0 {
		done.SubOpt = total / best
	}
	rec.Record(done)
	events := rec.Events()
	rendered := telemetry.RenderTrace(events)
	if jsonOut {
		doc := runDoc{
			Query: sp.Name, Algorithm: algo.String(), D: q.D(), GridRes: len(s.Grid.Points[0]),
			POSPSize: len(s.Plans()), Contours: len(s.ContourCosts(ess.CostDoublingRatio)),
			TotalCost: total, Trace: rendered, Events: events,
		}
		if best > 0 {
			doc.OptimalCost = best
			doc.SubOpt = total / best
		}
		return writeRunJSON(doc)
	}
	fmt.Println("physical execution over synthetic rows:")
	fmt.Print(rendered)
	if spansOut {
		printSpanTree("", events)
	}
	if best > 0 {
		fmt.Printf("\ntotal work: %.4g | best physical plan: %.4g | sub-optimality: %.2f\n", total, best, total/best)
	}
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
