package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// This file is the process-metrics half of the telemetry layer: a
// dependency-free counter/gauge/histogram registry exposed in the Prometheus
// text exposition format (version 0.0.4). Counters and gauges are single
// atomically-updated float64 cells; histograms use fixed buckets with atomic
// per-bucket counts, so the hot path never takes the registry lock.

// Registry holds a set of metric families. Registration (Counter, Gauge,
// Histogram, their Vec variants, GaugeFunc) is expected at construction
// time and panics on invalid or duplicate names — a programming error, like
// redefining a flag. Updates and exposition are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// family is one named metric with a fixed label schema.
type family struct {
	name, help, typ string
	labels          []string
	buckets         []float64 // histogram upper bounds, ascending, no +Inf
	fn              func() float64

	mu     sync.Mutex
	series map[string]*series
}

// series is one label-value combination's data cells.
type series struct {
	labelValues []string
	bits        atomic.Uint64   // counter/gauge value as float64 bits
	counts      []atomic.Uint64 // histogram per-bucket (non-cumulative); last is +Inf
	sumBits     atomic.Uint64
	count       atomic.Uint64

	// exMu guards exemplars, the last trace-linked observation per
	// histogram bucket (nil until the first ObserveTrace). Exemplars are
	// off the hot path — only trace-sampled observations take the lock.
	exMu      sync.Mutex
	exemplars []exemplar
}

// exemplar links one histogram bucket to the trace that last landed in it
// (OpenMetrics exemplar: `... # {trace_id="..."} value`).
type exemplar struct {
	traceID string
	value   float64
}

// addFloat atomically adds v to a float64-bits cell.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// maxFloat atomically raises a float64-bits cell to at least v.
func maxFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register validates and installs a family.
func (r *Registry) register(f *family) *family {
	if !validName(f.name) {
		panic("telemetry: invalid metric name " + f.name)
	}
	for _, l := range f.labels {
		if !validName(l) {
			panic("telemetry: invalid label name " + l + " on " + f.name)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[f.name]; dup {
		panic("telemetry: duplicate metric " + f.name)
	}
	f.series = make(map[string]*series)
	r.families[f.name] = f
	return f
}

// validName checks the Prometheus metric/label name grammar.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// with resolves (creating on first use) the series for the label values.
func (f *family) with(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		s = &series{labelValues: append([]string(nil), values...)}
		if f.typ == "histogram" {
			s.counts = make([]atomic.Uint64, len(f.buckets)+1)
		}
		f.series[key] = s
	}
	return s
}

// Counter is a monotonically increasing value.
type Counter struct{ s *series }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v (must be >= 0; negative deltas are ignored).
func (c *Counter) Add(v float64) {
	if v < 0 {
		return
	}
	addFloat(&c.s.bits, v)
}

// Value reads the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.s.bits.Load()) }

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// With returns the counter for the label values, creating it on first use.
func (v *CounterVec) With(values ...string) *Counter { return &Counter{v.f.with(values)} }

// Gauge is a value that can go up and down.
type Gauge struct{ s *series }

// Set stores v.
func (g *Gauge) Set(v float64) { g.s.bits.Store(math.Float64bits(v)) }

// Add adds v (possibly negative).
func (g *Gauge) Add(v float64) { addFloat(&g.s.bits, v) }

// SetMax raises the gauge to at least v (a high-water mark).
func (g *Gauge) SetMax(v float64) { maxFloat(&g.s.bits, v) }

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// With returns the gauge for the label values, creating it on first use.
func (v *GaugeVec) With(values ...string) *Gauge { return &Gauge{v.f.with(values)} }

// Histogram is a fixed-bucket distribution.
type Histogram struct {
	s       *series
	buckets []float64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.buckets, v) // first bucket with bound >= v
	h.s.counts[i].Add(1)
	h.s.count.Add(1)
	addFloat(&h.s.sumBits, v)
}

// ObserveTrace records one sample and, when traceID is non-empty, stores it
// as the landing bucket's exemplar: the OpenMetrics exposition
// (WriteOpenMetrics) then links that bucket to the trace, so a dashboard's
// "what made this bucket move" click lands on a span tree.
func (h *Histogram) ObserveTrace(v float64, traceID string) {
	h.Observe(v)
	if traceID == "" {
		return
	}
	i := sort.SearchFloat64s(h.buckets, v)
	h.s.exMu.Lock()
	if h.s.exemplars == nil {
		h.s.exemplars = make([]exemplar, len(h.buckets)+1)
	}
	h.s.exemplars[i] = exemplar{traceID: traceID, value: v}
	h.s.exMu.Unlock()
}

// exemplarAt snapshots bucket i's exemplar ("" when none was recorded).
func (s *series) exemplarAt(i int) (exemplar, bool) {
	s.exMu.Lock()
	defer s.exMu.Unlock()
	if s.exemplars == nil || s.exemplars[i].traceID == "" {
		return exemplar{}, false
	}
	return s.exemplars[i], true
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// With returns the histogram for the label values, creating on first use.
func (v *HistogramVec) With(values ...string) *Histogram {
	return &Histogram{v.f.with(values), v.f.buckets}
}

// Counter registers an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(&family{name: name, help: help, typ: "counter"})
	return &Counter{f.with(nil)}
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(&family{name: name, help: help, typ: "counter", labels: labels})}
}

// Gauge registers an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(&family{name: name, help: help, typ: "gauge"})
	return &Gauge{f.with(nil)}
}

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.register(&family{name: name, help: help, typ: "gauge", labels: labels})}
}

// GaugeFunc registers a gauge whose value is computed at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, typ: "gauge", fn: fn})
}

// Histogram registers an unlabeled fixed-bucket histogram. Bounds must be
// ascending; the implicit +Inf bucket is added automatically.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.register(&family{name: name, help: help, typ: "histogram", buckets: checkBuckets(name, buckets)})
	return &Histogram{f.with(nil), f.buckets}
}

// HistogramVec registers a labeled fixed-bucket histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.register(&family{
		name: name, help: help, typ: "histogram",
		buckets: checkBuckets(name, buckets), labels: labels,
	})}
}

func checkBuckets(name string, buckets []float64) []float64 {
	if len(buckets) == 0 {
		panic("telemetry: histogram " + name + " needs at least one bucket")
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic("telemetry: histogram " + name + " buckets not ascending")
		}
	}
	return append([]float64(nil), buckets...)
}

// sortedFamilies snapshots the family list in name order.
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// sortedSeries snapshots a family's series in label-value order.
func (f *family) sortedSeries() []*series {
	f.mu.Lock()
	ss := make([]*series, 0, len(f.series))
	for _, s := range f.series {
		ss = append(ss, s)
	}
	f.mu.Unlock()
	sort.Slice(ss, func(i, j int) bool {
		return strings.Join(ss[i].labelValues, "\x00") < strings.Join(ss[j].labelValues, "\x00")
	})
	return ss
}

// WriteProm writes the registry in the Prometheus text exposition format
// (version 0.0.4). Exemplars are omitted — the classic format has no
// syntax for them; scrape WriteOpenMetrics to see them.
func (r *Registry) WriteProm(w io.Writer) error { return r.writeText(w, false) }

// WriteOpenMetrics writes the registry in an OpenMetrics-flavored text
// exposition: the classic format plus histogram bucket exemplars
// (`... # {trace_id="..."} value`) and the terminal `# EOF` marker. Served
// when a scraper negotiates Accept: application/openmetrics-text.
func (r *Registry) WriteOpenMetrics(w io.Writer) error { return r.writeText(w, true) }

func (r *Registry) writeText(w io.Writer, openMetrics bool) error {
	var b strings.Builder
	for _, f := range r.sortedFamilies() {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		if f.fn != nil {
			fmt.Fprintf(&b, "%s %s\n", f.name, formatValue(f.fn()))
			continue
		}
		for _, s := range f.sortedSeries() {
			base := labelString(f.labels, s.labelValues, "", "")
			if f.typ != "histogram" {
				fmt.Fprintf(&b, "%s%s %s\n", f.name, base, formatValue(math.Float64frombits(s.bits.Load())))
				continue
			}
			cum := uint64(0)
			for i, ub := range f.buckets {
				cum += s.counts[i].Load()
				fmt.Fprintf(&b, "%s_bucket%s %d", f.name,
					labelString(f.labels, s.labelValues, "le", formatValue(ub)), cum)
				if openMetrics {
					if ex, ok := s.exemplarAt(i); ok {
						fmt.Fprintf(&b, " # {trace_id=\"%s\"} %s", escapeLabel(ex.traceID), formatValue(ex.value))
					}
				}
				b.WriteByte('\n')
			}
			cum += s.counts[len(f.buckets)].Load()
			fmt.Fprintf(&b, "%s_bucket%s %d", f.name,
				labelString(f.labels, s.labelValues, "le", "+Inf"), cum)
			if openMetrics {
				if ex, ok := s.exemplarAt(len(f.buckets)); ok {
					fmt.Fprintf(&b, " # {trace_id=\"%s\"} %s", escapeLabel(ex.traceID), formatValue(ex.value))
				}
			}
			b.WriteByte('\n')
			fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, base, formatValue(math.Float64frombits(s.sumBits.Load())))
			fmt.Fprintf(&b, "%s_count%s %d\n", f.name, base, s.count.Load())
		}
	}
	if openMetrics {
		b.WriteString("# EOF\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// labelString renders {k="v",...}, optionally appending one extra pair
// (the histogram "le" bound); empty when there are no labels at all.
func labelString(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extraValue))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatValue renders a sample value: shortest round-trip float, with the
// Prometheus spellings for the infinities.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
