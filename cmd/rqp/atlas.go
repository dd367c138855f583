package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	repro "repro"
	"repro/internal/workload"
)

// atlasMain implements the `rqp atlas` subcommand: build a 2D benchmark
// session, sweep a seeded error-regime scenario suite across the requested
// algorithms, and dump the per-regime robustness atlas as SVG or JSON.
//
//	rqp atlas -query 2D_EQ -algos spillbound,planbouquet -seed 7 -o atlas.svg
func atlasMain(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("rqp atlas", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		queryName = fs.String("query", "2D_Q91", "2D benchmark query name (see rqp -list)")
		res       = fs.Int("res", 0, "grid resolution override (0 = query default)")
		profile   = fs.String("profile", "postgres", "cost profile: postgres | commercial")
		algosStr  = fs.String("algos", "planbouquet,spillbound,alignedbound", "comma-separated algorithms to map")
		seed      = fs.Int64("seed", 1, "scenario suite seed")
		perRegime = fs.Int("per-regime", 1, "scenarios per error regime")
		max       = fs.Int("max", 0, "cap the per-scenario location sample (0 = every grid cell)")
		format    = fs.String("format", "svg", "output format: svg | json")
		outPath   = fs.String("o", "-", "output file (- = stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *format != "svg" && *format != "json" {
		return fmt.Errorf("unknown format %q (want svg or json)", *format)
	}
	if *perRegime < 1 {
		return fmt.Errorf("-per-regime must be >= 1")
	}
	var algos []repro.Algorithm
	for _, name := range strings.Split(*algosStr, ",") {
		name = strings.TrimSpace(name)
		if _, err := repro.ParseStrategy(name); err != nil {
			return err
		}
		algos = append(algos, repro.Algorithm(name))
	}
	sp, ok := workload.ByName(*queryName)
	if !ok {
		return fmt.Errorf("unknown query %q (use rqp -list)", *queryName)
	}
	if sp.D != 2 {
		return fmt.Errorf("the robustness atlas needs a 2D query; %s is %dD", sp.Name, sp.D)
	}
	opts := repro.BenchmarkOptions()
	switch *profile {
	case "postgres":
	case "commercial":
		opts.Params = repro.CommercialProfile()
	default:
		return fmt.Errorf("unknown profile %q", *profile)
	}
	if *res != 0 {
		opts.GridRes = *res
	}
	fmt.Fprintf(stderr, "building ESS for %s and sweeping %d scenarios x %d algorithms...\n",
		sp.Name, 3**perRegime, len(algos))
	sess, err := repro.NewBenchmarkSession(sp, opts)
	if err != nil {
		return err
	}
	suite := repro.ScenarioSuite(*seed, *perRegime)
	atlas, err := sess.Atlas(context.Background(), algos, suite, *max)
	if err != nil {
		return err
	}
	var payload []byte
	if *format == "svg" {
		payload = []byte(atlas.SVG())
	} else {
		payload, err = atlas.JSON()
		if err != nil {
			return err
		}
	}
	if *outPath == "-" {
		_, err = stdout.Write(payload)
		return err
	}
	if err := os.WriteFile(*outPath, payload, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote %s (%d bytes)\n", *outPath, len(payload))
	return nil
}
