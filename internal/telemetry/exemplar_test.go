package telemetry

import (
	"strings"
	"testing"
)

const exTrace = "4bf92f3577b34da6a3ce929d0e0e4736"

func TestObserveTraceExemplarRoundTrip(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("req_seconds", "request latency", []float64{0.1, 1, 10})
	h.ObserveTrace(0.05, exTrace) // first bucket
	h.ObserveTrace(5, strings.Repeat("ab", 16))
	h.Observe(0.5) // plain observation leaves its bucket exemplar-free

	var om, prom strings.Builder
	if err := r.WriteOpenMetrics(&om); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	// The classic exposition has no exemplar syntax and no EOF marker.
	if strings.Contains(prom.String(), "trace_id") || strings.Contains(prom.String(), "# EOF") {
		t.Errorf("WriteProm leaked OpenMetrics syntax:\n%s", prom.String())
	}
	if !strings.HasSuffix(om.String(), "# EOF\n") {
		t.Errorf("OpenMetrics exposition missing terminal # EOF:\n%s", om.String())
	}

	fams, err := ParseProm(strings.NewReader(om.String()))
	if err != nil {
		t.Fatalf("OpenMetrics output does not parse: %v\n%s", err, om.String())
	}
	fam := fams["req_seconds"]
	if fam == nil {
		t.Fatal("family missing from parse")
	}
	byLE := map[string]*Exemplar{}
	for _, s := range fam.Samples {
		if strings.HasSuffix(s.Name, "_bucket") {
			byLE[s.Labels["le"]] = s.Exemplar
		}
	}
	ex := byLE["0.1"]
	if ex == nil || ex.Labels["trace_id"] != exTrace || ex.Value != 0.05 {
		t.Errorf("bucket le=0.1 exemplar = %+v, want trace %s value 0.05", ex, exTrace)
	}
	if ex := byLE["10"]; ex == nil || ex.Labels["trace_id"] != strings.Repeat("ab", 16) || ex.Value != 5 {
		t.Errorf("bucket le=10 exemplar = %+v", ex)
	}
	// 0.5 landed in the le=1 bucket via plain Observe: no exemplar there.
	if byLE["1"] != nil {
		t.Errorf("plain Observe attached an exemplar: %+v", byLE["1"])
	}
}

func TestObserveTraceOverwriteAndEmptyID(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "help", []float64{1})
	h.ObserveTrace(0.5, "") // empty trace ID records the sample but no exemplar
	var out strings.Builder
	if err := r.WriteOpenMetrics(&out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "trace_id") {
		t.Errorf("empty trace ID produced an exemplar:\n%s", out.String())
	}
	if h.s.count.Load() != 1 {
		t.Errorf("count = %d, want 1", h.s.count.Load())
	}

	h.ObserveTrace(0.3, "aaaa")
	h.ObserveTrace(0.7, "bbbb") // same bucket: last observation wins
	out.Reset()
	if err := r.WriteOpenMetrics(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `# {trace_id="bbbb"} 0.7`) {
		t.Errorf("exemplar not overwritten by the latest observation:\n%s", out.String())
	}
	if strings.Contains(out.String(), "aaaa") {
		t.Errorf("stale exemplar survived:\n%s", out.String())
	}
}

func TestParsePromExemplarSyntax(t *testing.T) {
	// Hand-written exposition exercising the parser's exemplar path: sample
	// labels and exemplar labels on one line, exemplar timestamps, and a
	// quoted label value containing the brace that used to confuse the
	// label-set scanner.
	src := `# HELP d demo
# TYPE d histogram
d_bucket{op="a}b",le="1"} 3 # {trace_id="cafe"} 0.5 1700000000.5
d_bucket{op="a}b",le="+Inf"} 3
d_sum{op="a}b"} 1.5
d_count{op="a}b"} 3
# EOF
`
	fams, err := ParseProm(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	s := fams["d"].Samples[0]
	if s.Labels["op"] != "a}b" || s.Labels["le"] != "1" || s.Value != 3 {
		t.Fatalf("sample parsed as %+v", s)
	}
	if s.Exemplar == nil || s.Exemplar.Labels["trace_id"] != "cafe" || s.Exemplar.Value != 0.5 {
		t.Fatalf("exemplar parsed as %+v", s.Exemplar)
	}

	bad := []string{
		"# TYPE x counter\nx 1 # trace_id\n",            // exemplar without label set
		"# TYPE x counter\nx 1 # {trace_id=\"a\"}\n",    // exemplar without value
		"# TYPE x counter\nx 1 # {trace_id=\"a} nope\n", // unterminated exemplar labels
	}
	for _, src := range bad {
		if _, err := ParseProm(strings.NewReader(src)); err == nil {
			t.Errorf("ParseProm accepted %q", src)
		}
	}
}

func TestCloseBrace(t *testing.T) {
	cases := []struct {
		in   string
		want int
	}{
		{`{a="b"}`, 6},
		{`{a="}"} trailing }`, 6},    // quoted brace skipped
		{`{a="\"}"}`, 8},             // escaped quote inside value
		{`{a="b"} 1 # {c="d"} 2`, 6}, // first unquoted brace, not the last
		{`{a="unterminated`, -1},     // no closing brace
		{`{a="\\"}`, 7},              // escaped backslash does not eat the quote
	}
	for _, c := range cases {
		if got := closeBrace(c.in); got != c.want {
			t.Errorf("closeBrace(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}
