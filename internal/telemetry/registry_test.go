package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeExposition(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("jobs_total", "Total jobs.")
	c.Inc()
	c.Add(2)
	c.Add(-5) // ignored: counters are monotonic
	g := reg.Gauge("temperature", "Current temperature.")
	g.Set(20)
	g.Add(-1.5)
	gv := reg.GaugeVec("queue_depth", "Depth per queue.", "queue")
	gv.With("fast").Set(3)
	gv.With("slow").SetMax(7)
	gv.With("slow").SetMax(2) // lower: keeps high-water mark

	var b strings.Builder
	if err := reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE jobs_total counter",
		"jobs_total 3",
		"temperature 18.5",
		`queue_depth{queue="fast"} 3`,
		`queue_depth{queue="slow"} 7`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if c.Value() != 3 {
		t.Errorf("counter value = %g", c.Value())
	}
}

func TestHistogramExposition(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("latency_seconds", "Request latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	var b strings.Builder
	if err := reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`latency_seconds_bucket{le="0.1"} 1`,
		`latency_seconds_bucket{le="1"} 3`,
		`latency_seconds_bucket{le="10"} 4`,
		`latency_seconds_bucket{le="+Inf"} 5`,
		"latency_seconds_sum 56.05",
		"latency_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if h.s.count.Load() != 5 {
		t.Errorf("count = %d", h.s.count.Load())
	}
}

func TestGaugeFuncAndInf(t *testing.T) {
	reg := NewRegistry()
	reg.GaugeFunc("answer", "Computed at scrape.", func() float64 { return 42 })
	g := reg.Gauge("inf_gauge", "Can be infinite.")
	g.Set(math.Inf(1))
	var b strings.Builder
	if err := reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "answer 42") {
		t.Errorf("missing gauge func sample:\n%s", out)
	}
	if !strings.Contains(out, "inf_gauge +Inf") {
		t.Errorf("missing +Inf spelling:\n%s", out)
	}
}

func TestExpositionParsesCleanly(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a_total", "A counter.").Add(4)
	reg.CounterVec("b_total", "With labels.", "route", "status").With(`/v1/x"y\z`, "200").Inc()
	h := reg.HistogramVec("c_seconds", "Labeled histogram.", []float64{0.5, 2}, "route")
	h.With("/v1/run").Observe(1)
	h.With("/v1/run").Observe(99)
	var b strings.Builder
	if err := reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseProm(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("own exposition does not parse: %v\n%s", err, b.String())
	}
	if fams["a_total"].Type != "counter" || len(fams["a_total"].Samples) != 1 || fams["a_total"].Samples[0].Value != 4 {
		t.Errorf("a_total = %+v", fams["a_total"])
	}
	bt := fams["b_total"].Samples[0]
	if bt.Labels["route"] != `/v1/x"y\z` || bt.Labels["status"] != "200" {
		t.Errorf("label escaping round-trip broken: %+v", bt.Labels)
	}
	if got := len(fams["c_seconds"].Samples); got != 5 { // 3 buckets + sum + count
		t.Errorf("c_seconds samples = %d", got)
	}
}

func TestParsePromRejectsMalformed(t *testing.T) {
	cases := []string{
		"no_type_decl 1\n# TYPE other counter\nother 2\n",
		"# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_count 5\nh_sum 1\n",
		"# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_count 1\nh_sum 1\n",
		"# TYPE x wat\nx 1\n",
		"# TYPE c counter\nc{bad name=\"v\"} 1\n",
	}
	for i, c := range cases {
		if _, err := ParseProm(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: expected parse error for:\n%s", i, c)
		}
	}
}

func TestRegistryConcurrency(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("n_total", "x")
	v := reg.CounterVec("m_total", "x", "who")
	h := reg.Histogram("d", "x", []float64{1, 10})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c.Inc()
				v.With("worker").Inc()
				h.Observe(float64(i % 20))
				if i%50 == 0 {
					var b strings.Builder
					_ = reg.WriteProm(&b)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Value() != 1600 {
		t.Errorf("counter = %g, want 1600", c.Value())
	}
	if h.s.count.Load() != 1600 {
		t.Errorf("histogram count = %d", h.s.count.Load())
	}
}
