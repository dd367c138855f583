// Command perfbench is the repository's benchmark: it drives one of three
// workloads against the robust query processing stack, checks that every
// output is correct, and prints the metrics. run.sh builds it from the
// checkout's sources and runs it:
//
//	bash perfbench/run.sh --workload offline|serve|durable --seed N --seconds S --trace 0|1
//
// With --trace 0 the last line of standard output is the end-to-end result;
// with --trace 1 the run is repeated as a traced layer ladder and the last
// line carries the per-layer metrics. The lines above it are a readable
// report: the run record, each metric under its workload-specific name with
// its unit and sample count, and (traced runs) the tracing overhead.
// See README.md for the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// e2eUnits are the end-to-end metrics every untraced run reports, one
// definition per workload (README.md).
var e2eUnits = map[string]string{
	"setup_s":      "s",
	"heap_live_mb": "MiB",
	"p50_ms":       "ms",
	"p99_ms":       "ms",
	"alt_p50_ms":   "ms",
	"alt_p99_ms":   "ms",
	"ops_per_s":    "1/s",
}

// layerUnits are the per-layer metrics every traced run reports.
var layerUnits = map[string]string{
	"fleet.proxy_us":                  "us",
	"server.wire_us":                  "us",
	"server.handler_us":               "us",
	"server.response_bytes":           "count",
	"server.read_handler_us":          "us",
	"server.sheds":                    "count",
	"repro.run_us":                    "us",
	"spillbound.run_us":               "us",
	"bouquet.run_us":                  "us",
	"aligned.run_us":                  "us",
	"repro.selection_run_us":          "us",
	"optimizer.truth_us":              "us",
	"optimizer.repeat_ratio":          "fraction",
	"telemetry.events_per_run":        "count",
	"trace.from_run_us":               "us",
	"runstate.save_us":                "us",
	"runstate.checkpoints_per_run":    "count",
	"runstate.snapshot_bytes":         "count",
	"optimizer.optimize_us":           "us",
	"cost.eval_ns":                    "ns",
	"ess.cells_per_s.serial":          "1/s",
	"ess.cells_per_s.parallel":        "1/s",
	"ess.speedup":                     "ratio",
	"ess.posp_plans":                  "count",
	"metrics.locs_per_s.spillbound":   "1/s",
	"metrics.locs_per_s.planbouquet":  "1/s",
	"metrics.locs_per_s.alignedbound": "1/s",
	"spillbound.execs_per_loc":        "count",
	"bouquet.execs_per_loc":           "count",
	"aligned.execs_per_loc":           "count",
	"engine.exec_us":                  "us",
}

// bench carries one invocation's settings and its correctness ledger.
type bench struct {
	root    string
	work    string // scratch directory for this run, inside the checkout
	seed    int64
	seconds int
	trace   bool

	mu        sync.Mutex
	attempted int64
	failed    int64
	problems  []string
}

// op counts one attempted operation and, when err is non-nil, its failure.
func (b *bench) op(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if err != nil {
		b.failed++
		if len(b.problems) < 20 {
			b.problems = append(b.problems, err.Error())
		}
	}
}

// errorRatio is failed ÷ attempted operations so far.
func (b *bench) errorRatio() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return float64(b.failed) / float64(max(1, b.attempted))
}

// check records a failed output check that is not tied to one operation
// (a metrics cross-check, a ladder disagreement).
func (b *bench) check(ok bool, format string, args ...any) {
	if ok {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failed++
	if len(b.problems) < 20 {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

// row is one line of the readable report: a metric under the name the
// workload gives it, with its unit and the samples behind it.
type row struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Value   float64 `json:"value"`
	Samples int     `json:"samples"`
	Note    string  `json:"note,omitempty"`
}

// outcome is what a workload hands back for printing.
type outcome struct {
	e2e    map[string]float64
	layer  map[string]float64
	rows   []row
	layers []row
	notes  []string
	spans  []span
}

func (o *outcome) add(name, unit string, v float64, n int, note string) {
	o.rows = append(o.rows, row{name, unit, v, n, note})
}

// addLayer records a per-layer metric unless an earlier ladder section
// already measured it: the workload's own section runs first, and the
// companion sections only fill in the layers the workload does not use.
func (o *outcome) addLayer(name string, v float64, n int, note string) {
	if _, ok := o.layer[name]; ok {
		return
	}
	o.layer[name] = v
	o.layers = append(o.layers, row{name, layerUnits[name], v, n, note})
}

func main() {
	var (
		workload = flag.String("workload", "", "offline, serve or durable")
		seed     = flag.Int64("seed", 1, "input seed: the same seed generates the same inputs")
		seconds  = flag.Int("seconds", 15, "measured window length the workload is sized for")
		traceOn  = flag.Int("trace", 0, "1 runs the traced layer ladder and reports per-layer metrics")
		root     = flag.String("root", ".", "checkout root (scratch files go to <root>/.bench_build)")
		record   = flag.Bool("record-expected", false, "print the offline reference values (MSO/ASO, POSP sizes) as JSON and exit")
	)
	flag.Parse()
	if *record {
		if err := recordExpected(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	abs, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	b := &bench{root: abs, seed: *seed, seconds: *seconds, trace: *traceOn == 1}
	b.work = filepath.Join(abs, ".bench_build", "perfbench", fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid()))
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(b.work)

	var out *outcome
	switch *workload {
	case "offline":
		out, err = runOffline(b)
	case "serve":
		out, err = runServe(b)
	case "durable":
		out, err = runDurable(b)
	default:
		err = fmt.Errorf("unknown --workload %q (want offline, serve or durable)", *workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.RemoveAll(b.work)
		os.Exit(1)
	}
	if err := report(b, *workload, out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.RemoveAll(b.work)
		os.Exit(1)
	}
}

// report prints the readable report and the result line, and for traced
// runs writes the spans and the per-layer table (see writeTrace).
func report(b *bench, workload string, out *outcome) error {
	rec := runRecord(b)
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%v\n", workload, b.seed, b.seconds, b.trace)
	keys := make([]string, 0, len(rec))
	for k := range rec {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  record %-14s %s\n", k, rec[k])
	}
	for _, n := range out.notes {
		fmt.Printf("  note %s\n", n)
	}
	for _, r := range out.rows {
		fmt.Printf("  %-34s %14.6g %-8s n=%-7d %s\n", r.Name, r.Value, r.Unit, r.Samples, r.Note)
	}
	if b.trace {
		fmt.Println("  per-layer (paired medians over the traced requests):")
		for _, r := range out.layers {
			fmt.Printf("  %-34s %14.6g %-8s n=%-7d %s\n", r.Name, r.Value, r.Unit, r.Samples, r.Note)
		}
		if err := writeTrace(b, workload, out, rec); err != nil {
			return err
		}
	}
	b.mu.Lock()
	res := struct {
		Correct   bool                      `json:"correct"`
		Attempted int64                     `json:"attempted"`
		Failed    int64                     `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]map[string]any{}}
	for _, p := range b.problems {
		fmt.Printf("  FAILED CHECK: %s\n", p)
	}
	b.mu.Unlock()
	vals, units := out.e2e, e2eUnits
	if b.trace {
		vals, units = out.layer, layerUnits
	}
	for name, unit := range units {
		v, ok := vals[name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", name)
		}
		res.Metrics[name] = map[string]any{"value": v, "unit": unit}
	}
	if res.Attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// writeTrace writes the traced run's spans (one JSON object per line) and
// its per-layer table under .bench_build/perfbench-traces.
func writeTrace(b *bench, workload string, out *outcome, rec map[string]string) error {
	dir := filepath.Join(b.root, ".bench_build", "perfbench-traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", workload, b.seed))
	f, err := os.Create(base + "-spans.jsonl")
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range out.spans {
		if err := enc.Encode(&out.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	table, err := json.MarshalIndent(map[string]any{
		"record": rec, "end_to_end": out.rows, "per_layer": out.layers, "notes": out.notes,
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+"-layers.json", table, 0o644); err != nil {
		return err
	}
	fmt.Printf("  spans: %d written to %s-spans.jsonl, table to %s-layers.json\n", len(out.spans), base, base)
	return nil
}

// since reports seconds elapsed since t0 as a float.
func since(t0 time.Time) float64 { return time.Since(t0).Seconds() }

// runRecord describes the machine and the code the figures belong to.
func runRecord(b *bench) map[string]string {
	fs, _ := fsType(b.work)
	return map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"commit":     commit(),
		"source":     sourceDigest(b.root),
		"data_fs":    fs,
		"flush":      "fsync of every run-state snapshot at each contour checkpoint (runstate.WriteFileAtomic); unchanged",
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"cpu":        cpuModel(),
	}
}

// cpuModel names the processor from /proc/cpuinfo when it is readable.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
