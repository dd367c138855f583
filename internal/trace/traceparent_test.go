package trace

import (
	"context"
	"strings"
	"testing"
)

const (
	w3cExample = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	exTraceID  = "4bf92f3577b34da6a3ce929d0e0e4736"
	exSpanID   = "00f067aa0ba902b7"
)

func TestParseHeaderRoundTrip(t *testing.T) {
	tp, err := Parse(w3cExample)
	if err != nil {
		t.Fatalf("Parse(%q): %v", w3cExample, err)
	}
	if tp.TraceID != exTraceID || tp.SpanID != exSpanID || !tp.Sampled {
		t.Fatalf("parsed %+v", tp)
	}
	if got := tp.Header(); got != w3cExample {
		t.Errorf("Header() = %q, want %q", got, w3cExample)
	}
	if !validHex(tp.TraceID, 32) || !validHex(tp.SpanID, 16) {
		t.Error("parsed traceparent reports invalid")
	}
}

func TestParseNotSampled(t *testing.T) {
	// Flags 00 (not sampled) is a legal all-zero field; only the IDs carry
	// the all-zero-is-invalid rule.
	tp, err := Parse("00-" + exTraceID + "-" + exSpanID + "-00")
	if err != nil {
		t.Fatalf("unsampled header rejected: %v", err)
	}
	if tp.Sampled {
		t.Error("flags 00 parsed as sampled")
	}
	if got := tp.Header(); !strings.HasSuffix(got, "-00") {
		t.Errorf("Header() = %q, want -00 flags", got)
	}
}

func TestParseFutureVersionAndExtraFields(t *testing.T) {
	// Per spec, a parser must accept headers from future versions with
	// trailing version-specific fields.
	tp, err := Parse("01-" + exTraceID + "-" + exSpanID + "-01-extradata")
	if err != nil {
		t.Fatalf("future-version header rejected: %v", err)
	}
	if tp.TraceID != exTraceID {
		t.Errorf("trace ID %q", tp.TraceID)
	}
}

func TestParseRejects(t *testing.T) {
	bad := []string{
		"",
		"not-a-traceparent",
		"00-" + exTraceID + "-" + exSpanID, // missing flags
		"ff-" + exTraceID + "-" + exSpanID + "-01",                  // forbidden version
		"00-00000000000000000000000000000000-" + exSpanID + "-01",   // all-zero trace ID
		"00-" + exTraceID + "-0000000000000000-01",                  // all-zero span ID
		"00-" + strings.ToUpper(exTraceID) + "-" + exSpanID + "-01", // uppercase hex
		"00-" + exTraceID[:31] + "-" + exSpanID + "-01",             // short trace ID
		"00-" + exTraceID + "-" + exSpanID + "-0g",                  // non-hex flags
		"zz-" + exTraceID + "-" + exSpanID + "-01",                  // non-hex version
	}
	for _, h := range bad {
		if _, err := Parse(h); err == nil {
			t.Errorf("Parse(%q) accepted", h)
		}
	}
}

func TestNewMintsValid(t *testing.T) {
	a, b := New(), New()
	if !validHex(a.TraceID, 32) || !validHex(a.SpanID, 16) || !a.Sampled {
		t.Fatalf("New() = %+v", a)
	}
	if _, err := Parse(a.Header()); err != nil {
		t.Fatalf("minted header does not round-trip: %v", err)
	}
	if a.TraceID == b.TraceID {
		t.Error("two minted traceparents share a trace ID")
	}
}

func TestSpanIDFor(t *testing.T) {
	id := SpanIDFor(exTraceID, "0.1.2")
	if len(id) != 16 || !validHex(id, 16) {
		t.Fatalf("SpanIDFor = %q", id)
	}
	if id != SpanIDFor(exTraceID, "0.1.2") {
		t.Error("SpanIDFor is not deterministic")
	}
	if id == SpanIDFor(exTraceID, "0.1.3") {
		t.Error("sibling paths collide")
	}
	if id == SpanIDFor(strings.Repeat("ab", 16), "0.1.2") {
		t.Error("same path under different traces collides")
	}
}

func TestSampleBoundariesAndDeterminism(t *testing.T) {
	if !Sample(exTraceID, 1) || !Sample(exTraceID, 2) {
		t.Error("rate >= 1 must keep everything")
	}
	if Sample(exTraceID, 0) || Sample(exTraceID, -1) {
		t.Error("rate <= 0 must keep nothing")
	}
	if Sample("not-hex", 0.5) {
		t.Error("malformed trace ID must not be kept at fractional rates")
	}
	// Deterministic per ID, and a fractional rate splits a population.
	kept := 0
	for i := 0; i < 256; i++ {
		id := New().TraceID
		a, b := Sample(id, 0.5), Sample(id, 0.5)
		if a != b {
			t.Fatalf("verdict for %s flapped", id)
		}
		if a {
			kept++
		}
	}
	if kept == 0 || kept == 256 {
		t.Errorf("rate 0.5 kept %d/256 traces", kept)
	}
	// Monotone in rate: a trace kept at rate r stays kept at r' > r.
	for i := 0; i < 64; i++ {
		id := New().TraceID
		if Sample(id, 0.1) && !Sample(id, 0.9) {
			t.Fatalf("trace %s kept at 0.1 but dropped at 0.9", id)
		}
	}
}

func TestContextRoundTrip(t *testing.T) {
	if _, ok := FromContext(context.Background()); ok {
		t.Fatal("empty context reports a traceparent")
	}
	tp := New()
	got, ok := FromContext(WithContext(context.Background(), tp))
	if !ok || got != tp {
		t.Fatalf("round-trip = %+v, %v", got, ok)
	}
}
