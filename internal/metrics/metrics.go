// Package metrics computes the paper's robustness metrics over the ESS:
// MSO — the worst-case sub-optimality of a processing strategy over every
// possible true location (Eq. 2/4) — ASO, its average-case counterpart
// (Eq. 8), and the sub-optimality distribution histograms of Sec 6.2.5.
// Strategies are abstracted as a function from the true location to total
// discovery cost, so PlanBouquet, SpillBound, AlignedBound and the native
// baseline all sweep through the same machinery.
package metrics

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/cost"
	"repro/internal/ess"
)

// RunFunc executes a processing strategy against the given true location
// and returns its total cost (the numerator of Eq. 3).
type RunFunc func(truth cost.Location) float64

// SweepOptions controls an ESS sweep.
type SweepOptions struct {
	// MaxLocations caps the number of true locations evaluated; 0 means
	// exhaustive. Large high-dimensional grids are subsampled
	// deterministically (by Seed) to keep sweeps laptop-scale; the paper
	// used exhaustive enumeration on a cluster.
	MaxLocations int
	// Seed drives the subsample when MaxLocations is exceeded.
	Seed int64
	// Workers > 1 evaluates locations concurrently; Workers <= 1 evaluates
	// them one at a time. With more than one worker the RunFunc must be
	// safe for concurrent use: the discovery runners over a shared Space
	// are (the contour cache is mutex-protected, engines are per-call), but
	// a shared *optimizer.Optimizer is not — its DP scratch is reused
	// across calls. Results are deterministic regardless of worker count.
	Workers int
}

// SweepResult summarizes a sweep.
type SweepResult struct {
	// MSO is the maximum observed sub-optimality (Eq. 4).
	MSO float64
	// MSOCell is the grid cell attaining it.
	MSOCell int
	// ASO is the average sub-optimality (Eq. 8).
	ASO float64
	// SubOpt holds the per-location sub-optimalities, parallel to Cells.
	SubOpt []float64
	// Cells holds the evaluated grid cells.
	Cells []int
}

// SweepContext evaluates the strategy at (a sample of) every grid cell as
// the true location and aggregates the sub-optimalities. The context is
// polled between location evaluations (workers stop claiming new cells once
// it is done); on cancellation the result is returned unaggregated with the
// context's error, holding a zero sub-optimality at every location never
// evaluated.
func SweepContext(ctx context.Context, s *ess.Space, run RunFunc, opts SweepOptions) (SweepResult, error) {
	g := s.Grid
	cells := pickCells(g.Size(), opts)
	res := SweepResult{Cells: cells, SubOpt: make([]float64, len(cells)), MSOCell: -1}
	forEach(ctx, len(cells), opts.Workers, func(i int) {
		ci := cells[i]
		res.SubOpt[i] = run(g.Location(ci)) / s.CostAt(ci)
	})
	if err := ctx.Err(); err != nil {
		return res, err
	}
	res.aggregate(nil)
	return res, nil
}

// aggregate sets MSO, MSOCell and ASO from SubOpt, summing in index order so
// the result never depends on the evaluation schedule. weight (nil means
// uniform) gives each cell's share of ASO; cells of zero weight count
// towards neither MSO nor ASO.
func (r *SweepResult) aggregate(weight func(ci int) float64) {
	r.MSO, r.MSOCell, r.ASO = 0, -1, 0
	sum, wsum := 0.0, 0.0
	for i, so := range r.SubOpt {
		w := 1.0
		if weight != nil {
			w = weight(r.Cells[i])
		}
		if w <= 0 {
			continue
		}
		sum += w * so
		wsum += w
		if so > r.MSO {
			r.MSO = so
			r.MSOCell = r.Cells[i]
		}
	}
	if wsum > 0 {
		r.ASO = sum / wsum
	}
}

// forEach calls fn for every index in [0, n) from workers goroutines that
// claim indices off one shared counter; workers <= 1 means one worker. fn
// must be safe for concurrent use when workers > 1. Workers stop claiming
// once ctx is done, so a canceled loop leaves some indices unvisited.
func forEach(ctx context.Context, n, workers int, fn func(i int)) {
	workers = max(1, min(workers, n))
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// SweepManyContext evaluates several named strategies over one shared cell
// sample: pickCells is deterministic in the options, so every strategy is
// measured at identical true locations — including under subsampling — and
// the per-strategy MSO/ASO aggregates are directly comparable. Strategies
// run in name order; a context abort returns the aggregates completed so
// far with the context's error.
func SweepManyContext(ctx context.Context, s *ess.Space, runs map[string]RunFunc, opts SweepOptions) (map[string]SweepResult, error) {
	names := make([]string, 0, len(runs))
	for name := range runs {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make(map[string]SweepResult, len(runs))
	for _, name := range names {
		res, err := SweepContext(ctx, s, runs[name], opts)
		if err != nil {
			return out, err
		}
		out[name] = res
	}
	return out, nil
}

// pickCells returns the sweep's cell sample: every cell when within budget,
// otherwise a deterministic uniform sample of exactly MaxLocations cells
// that starts from the origin and, for a cap of two or more, the terminus.
func pickCells(size int, opts SweepOptions) []int {
	if opts.MaxLocations <= 0 || size <= opts.MaxLocations {
		out := make([]int, size)
		for i := range out {
			out[i] = i
		}
		return out
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	seen := map[int]bool{0: true, size - 1: true}
	out := []int{0, size - 1}[:min(2, opts.MaxLocations)]
	for len(out) < opts.MaxLocations {
		ci := rng.Intn(size)
		if !seen[ci] {
			seen[ci] = true
			out = append(out, ci)
		}
	}
	sort.Ints(out)
	return out
}

// Bucket is one bar of a sub-optimality histogram.
type Bucket struct {
	// Lo and Hi bound the bucket [Lo, Hi).
	Lo, Hi float64
	// Count is the number of locations falling in the bucket.
	Count int
	// Pct is Count as a percentage of all locations.
	Pct float64
}

// Histogram buckets the sub-optimalities into ranges of the given width
// (the paper's Fig. 12 uses width 5), with a final overflow bucket
// collecting everything at or above maxBuckets*width.
func Histogram(subOpt []float64, width float64, maxBuckets int) []Bucket {
	if width <= 0 || maxBuckets < 1 {
		return nil
	}
	buckets := make([]Bucket, maxBuckets+1)
	for i := 0; i < maxBuckets; i++ {
		buckets[i].Lo = float64(i) * width
		buckets[i].Hi = float64(i+1) * width
	}
	buckets[maxBuckets].Lo = float64(maxBuckets) * width
	buckets[maxBuckets].Hi = math.Inf(1)
	for _, so := range subOpt {
		i := int(so / width)
		if i > maxBuckets {
			i = maxBuckets
		}
		buckets[i].Count++
	}
	if n := len(subOpt); n > 0 {
		for i := range buckets {
			buckets[i].Pct = 100 * float64(buckets[i].Count) / float64(n)
		}
	}
	return buckets
}
