package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// median returns the middle value (mean of the two middle values for an
// even count), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// A window's samples are cut into contiguous slices in completion order,
// and a figure is the median of its value over the slices: load from
// outside the benchmark that covers fewer than half the slices of a window
// does not move it.
const slices = 10

// series is one window's samples in completion order: at is seconds since
// the window opened, v the measured value.
type series struct{ at, v []float64 }

func (s *series) add(at, v float64) {
	s.at = append(s.at, at)
	s.v = append(s.v, v)
}

// merge interleaves several series by completion time.
func merge(ss ...series) series {
	type pt struct{ at, v float64 }
	var pts []pt
	for _, s := range ss {
		for i := range s.at {
			pts = append(pts, pt{s.at[i], s.v[i]})
		}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].at < pts[j].at })
	var out series
	for _, p := range pts {
		out.add(p.at, p.v)
	}
	return out
}

// overSlices is the median over k contiguous slices of f(slice).
func overSlices(xs []float64, k int, f func([]float64) float64) float64 {
	k = max(1, min(k, len(xs)))
	var vals []float64
	for i := 0; i < k; i++ {
		vals = append(vals, f(xs[i*len(xs)/k:(i+1)*len(xs)/k]))
	}
	return median(vals)
}

// p50 is the median over slices of each slice's median.
func (s series) p50() float64 { return overSlices(s.v, slices, median) }

// tail is the p99 over slices of at least 1000 samples, or the p90 over
// slices of at least 100 when the window has fewer than 1000, so every
// slice has ten samples or more beyond its percentile. It also returns
// the percentile's label.
func (s series) tail() (float64, string) {
	n := len(s.v)
	if n >= 1000 {
		return overSlices(s.v, n/1000, func(xs []float64) float64 { return percentile(xs, 0.99) }), "p99"
	}
	return overSlices(s.v, max(1, n/100), func(xs []float64) float64 { return percentile(xs, 0.90) }), "p90"
}

// rate is completions per second, median over slices.
func (s series) rate() float64 {
	n := len(s.at)
	var vals []float64
	prev := 0.0
	for i := 0; i < slices && n > 0; i++ {
		lo, hi := i*n/slices, (i+1)*n/slices
		if hi == lo {
			continue
		}
		end := s.at[hi-1]
		if end > prev {
			vals = append(vals, float64(hi-lo)/(end-prev))
		}
		prev = end
	}
	return median(vals)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// span is one traced interval: the benchmark records one per rung of the
// layer ladder, under one root span per request. Times are nanoseconds
// since the traced run began.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Request string `json:"request"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// record appends a span and returns its ID.
func (t *tracer) record(parent int, request, name string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Request: request, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
	return id
}

// reserve allocates a root span ID now and returns a function that fills
// it in when the request ends, so child spans can name their parent.
func (t *tracer) reserve(request, name string) (int, func()) {
	start := time.Now()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Request: request, Name: name, Start: int64(start.Sub(t.t0))})
	t.mu.Unlock()
	return id, func() {
		end := time.Now()
		t.mu.Lock()
		t.spans[id-1].End = int64(end.Sub(t.t0))
		t.mu.Unlock()
	}
}

// rung times one call as a child span of parent.
func (t *tracer) rung(parent int, request, name string, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	t.record(parent, request, name, start, end)
	return end.Sub(start)
}
