// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec 6): the MSO guarantee and empirical MSO comparisons of
// PlanBouquet vs SpillBound (Figs. 8–10), average sub-optimality (Fig. 11),
// sub-optimality distributions (Fig. 12), the SpillBound vs AlignedBound
// comparison (Fig. 13), the contour alignment cost study (Table 2), the
// wall-clock execution trace (Table 3 / Sec 6.3), the AlignedBound penalty
// summary (Table 4), the platform-dependence demonstration (Sec 1.1.3) and
// the JOB evaluation (Sec 6.5).
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/aligned"
	"repro/internal/bouquet"
	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/ess"
	"repro/internal/metrics"
	"repro/internal/spillbound"
	"repro/internal/workload"
)

// The paper's settings every experiment runs under.
const (
	// contourRatio is the contour cost ratio (paper default 2).
	contourRatio = ess.CostDoublingRatio
	// reductionLambda is the anorexic reduction threshold for PlanBouquet
	// (paper default 0.2).
	reductionLambda = 0.2
	// sweepSeed drives sweep subsampling.
	sweepSeed = 1
	// scaleFactor is the TPC-DS (and TPC-H) scale (paper: 100, i.e. 100 GB).
	scaleFactor = 100
)

// paperParams is the platform cost profile (paper: PostgreSQL).
var paperParams = cost.PostgresLike()

// Config collects the experiment-wide knobs.
type Config struct {
	// MaxLocations caps per-query MSO sweeps; 0 = exhaustive. The paper
	// enumerated exhaustively; large high-D grids are subsampled here to
	// stay laptop-scale.
	MaxLocations int
	// ResOverride optionally overrides the grid resolution per query name
	// (useful to shrink benchmark runtimes).
	ResOverride map[string]int
	// Workers parallelizes ESS builds and MSO sweeps (the runners are
	// concurrency-safe over a shared space); 0 uses GOMAXPROCS.
	Workers int
}

// DefaultConfig returns the paper-faithful configuration.
func DefaultConfig() Config {
	return Config{MaxLocations: 512}
}

// Lab owns the built ESS spaces and reduced diagrams, caching them across
// experiments (contour construction is the expensive preprocessing step the
// paper discusses in Sec 7).
type Lab struct {
	// Config is the lab's configuration.
	Config Config

	mu        sync.Mutex
	tpcds     *catalog.Catalog
	tpch      *catalog.Catalog
	imdb      *catalog.Catalog
	spaces    map[string]*ess.Space
	diagrams  map[string]*bouquet.Diagram
	sweeps    map[string]metrics.SweepResult
	abPenalty map[string]float64
}

// NewLab returns a Lab with the given configuration.
func NewLab(cfg Config) *Lab {
	return &Lab{
		Config:   cfg,
		spaces:   make(map[string]*ess.Space),
		diagrams: make(map[string]*bouquet.Diagram),
		sweeps:   make(map[string]metrics.SweepResult),
	}
}

// Catalog returns the named catalog, constructing it on first use.
func (l *Lab) Catalog(name string) (*catalog.Catalog, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch name {
	case "tpcds":
		if l.tpcds == nil {
			l.tpcds = catalog.TPCDS(scaleFactor)
		}
		return l.tpcds, nil
	case "tpch":
		if l.tpch == nil {
			l.tpch = catalog.TPCH(scaleFactor)
		}
		return l.tpch, nil
	case "imdb":
		if l.imdb == nil {
			l.imdb = catalog.IMDB()
		}
		return l.imdb, nil
	}
	return nil, fmt.Errorf("experiments: unknown catalog %q", name)
}

// Space returns the built ESS for the spec, caching per (query, profile).
func (l *Lab) Space(sp workload.Spec) (*ess.Space, error) {
	return l.SpaceWith(sp, paperParams)
}

// SpaceWith is Space under an explicit cost profile.
func (l *Lab) SpaceWith(sp workload.Spec, params cost.Params) (*ess.Space, error) {
	key := sp.Name + "@" + params.Name
	l.mu.Lock()
	if s, ok := l.spaces[key]; ok {
		l.mu.Unlock()
		return s, nil
	}
	l.mu.Unlock()

	cat, err := l.Catalog(sp.Catalog)
	if err != nil {
		return nil, err
	}
	q, err := sp.Build(cat)
	if err != nil {
		return nil, err
	}
	m, err := cost.NewModel(q, params)
	if err != nil {
		return nil, err
	}
	res := sp.GridRes
	if r, ok := l.Config.ResOverride[sp.Name]; ok {
		res = r
	}
	s, err := ess.BuildParallelContext(context.Background(), m, ess.NewGrid(q.D(), res, sp.GridLo), l.Config.Workers, nil)
	if err != nil {
		return nil, err
	}

	l.mu.Lock()
	l.spaces[key] = s
	l.mu.Unlock()
	return s, nil
}

// Diagram returns the anorexic-reduced plan diagram for the spec.
func (l *Lab) Diagram(sp workload.Spec) (*bouquet.Diagram, error) {
	key := sp.Name + "@" + paperParams.Name
	l.mu.Lock()
	if d, ok := l.diagrams[key]; ok {
		l.mu.Unlock()
		return d, nil
	}
	l.mu.Unlock()

	s, err := l.Space(sp)
	if err != nil {
		return nil, err
	}
	d := bouquet.Reduce(s, reductionLambda)
	l.mu.Lock()
	l.diagrams[key] = d
	l.mu.Unlock()
	return d, nil
}

// sweep runs the strategy over the space's grid per the lab's sampling
// configuration, on the lab's workers.
func (l *Lab) sweep(s *ess.Space, run metrics.RunFunc) metrics.SweepResult {
	workers := l.Config.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return l.sweepOn(s, run, workers)
}

// sweepOn is sweep on an explicit worker count.
func (l *Lab) sweepOn(s *ess.Space, run metrics.RunFunc, workers int) metrics.SweepResult {
	res, _ := metrics.SweepContext(context.Background(), s, run, metrics.SweepOptions{
		MaxLocations: l.Config.MaxLocations,
		Seed:         sweepSeed,
		Workers:      workers,
	})
	return res
}

// cachedSweep memoizes a sweep per (query space, algorithm tag); figures
// 10, 11 and 13 share the underlying PB/SB/AB sweeps.
func (l *Lab) cachedSweep(key string, s *ess.Space, run metrics.RunFunc) metrics.SweepResult {
	l.mu.Lock()
	res, ok := l.sweeps[key]
	l.mu.Unlock()
	if ok {
		return res
	}
	res = l.sweep(s, run)
	l.mu.Lock()
	l.sweeps[key] = res
	l.mu.Unlock()
	return res
}

// pbRun returns a RunFunc executing PlanBouquet on the reduced diagram.
func (l *Lab) pbRun(d *bouquet.Diagram) metrics.RunFunc {
	return func(truth cost.Location) float64 {
		e := engine.New(d.Space.Model, truth)
		return bouquet.Run(d, e, contourRatio).TotalCost
	}
}

// sbRun returns a RunFunc executing SpillBound.
func (l *Lab) sbRun(s *ess.Space) metrics.RunFunc {
	r := &spillbound.Runner{Space: s, Ratio: contourRatio}
	return func(truth cost.Location) float64 {
		return r.Run(engine.New(s.Model, truth)).TotalCost
	}
}

// abRun returns a RunFunc executing AlignedBound, optionally reporting the
// maximum partition penalty seen across the sweep (safe under parallel
// sweeps).
func (l *Lab) abRun(s *ess.Space, maxPenalty *float64) metrics.RunFunc {
	r := &aligned.Runner{Space: s, Ratio: contourRatio}
	var mu sync.Mutex
	return func(truth cost.Location) float64 {
		out := r.Run(engine.New(s.Model, truth))
		if maxPenalty != nil {
			mu.Lock()
			if out.MaxPartitionPenalty > *maxPenalty {
				*maxPenalty = out.MaxPartitionPenalty
			}
			mu.Unlock()
		}
		return out.TotalCost
	}
}

// abSweep runs (and caches) the AlignedBound sweep for a query, returning
// both the sweep and the maximum partition penalty observed — shared by
// Fig. 13 and Table 4.
func (l *Lab) abSweep(name string, s *ess.Space) (metrics.SweepResult, float64) {
	key := "ab:" + name
	l.mu.Lock()
	res, ok := l.sweeps[key]
	pen := l.abPenalty[key]
	l.mu.Unlock()
	if ok {
		return res, pen
	}
	var maxPen float64
	res = l.sweep(s, l.abRun(s, &maxPen))
	l.mu.Lock()
	l.sweeps[key] = res
	if l.abPenalty == nil {
		l.abPenalty = make(map[string]float64)
	}
	l.abPenalty[key] = maxPen
	l.mu.Unlock()
	return res, maxPen
}
