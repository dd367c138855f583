// Package trace is the distributed-tracing layer of the repository: W3C
// traceparent propagation (this file) and span trees derived from the
// telemetry event stream (span.go). It is dependency-free by design — the
// span model is a pure function of []telemetry.Event, so goldens can pin
// span trees exactly like they pin event streams, and nothing here imports
// an OpenTelemetry SDK.
//
// A Traceparent travels on the context (WithContext/FromContext), exactly
// like telemetry.Recorder and runstate.Tracker: the HTTP middleware parses
// or mints one per request, the run driver stamps its trace ID onto the
// RunResult, and durable runs persist it so a crash-resumed run is one
// trace spanning process incarnations.
package trace

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"strings"
)

// Traceparent is one parsed W3C trace-context header (version 00):
//
//	00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>
//
// TraceID identifies the whole trace, SpanID the caller's span, and Sampled
// mirrors the sampled flag bit.
type Traceparent struct {
	TraceID string
	SpanID  string
	Sampled bool
}

// Header renders the canonical version-00 header value.
func (tp Traceparent) Header() string {
	flags := "00"
	if tp.Sampled {
		flags = "01"
	}
	return "00-" + tp.TraceID + "-" + tp.SpanID + "-" + flags
}

// Parse parses a traceparent header value. It accepts any version except
// the forbidden ff, ignores trailing version-specific fields, and rejects
// the all-zero trace and span IDs the spec reserves as invalid.
func Parse(header string) (Traceparent, error) {
	parts := strings.Split(strings.TrimSpace(header), "-")
	if len(parts) < 4 {
		return Traceparent{}, fmt.Errorf("trace: malformed traceparent %q", header)
	}
	version, traceID, spanID, flags := parts[0], parts[1], parts[2], parts[3]
	// Version and flags may legitimately be all-zero ("00" is the current
	// version; flags 00 means not sampled) — only the IDs carry the spec's
	// all-zero-is-invalid rule.
	if !isHex(version, 2) || version == "ff" {
		return Traceparent{}, fmt.Errorf("trace: bad traceparent version %q", version)
	}
	if !validHex(traceID, 32) {
		return Traceparent{}, fmt.Errorf("trace: bad trace ID %q", traceID)
	}
	if !validHex(spanID, 16) {
		return Traceparent{}, fmt.Errorf("trace: bad parent span ID %q", spanID)
	}
	if !isHex(flags, 2) {
		return Traceparent{}, fmt.Errorf("trace: bad trace flags %q", flags)
	}
	var fb byte
	_, _ = fmt.Sscanf(flags, "%02x", &fb)
	return Traceparent{TraceID: traceID, SpanID: spanID, Sampled: fb&0x01 != 0}, nil
}

// isHex reports whether s is exactly n lowercase hex digits.
func isHex(s string, n int) bool {
	if len(s) != n {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}

// validHex reports whether s is exactly n lowercase hex digits and not all
// zero (the spec's invalid sentinel for trace and span IDs).
func validHex(s string, n int) bool {
	if !isHex(s, n) {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return true
		}
	}
	return false
}

// New mints a fresh sampled traceparent with random IDs.
func New() Traceparent {
	return Traceparent{TraceID: randomHex(16), SpanID: randomHex(8), Sampled: true}
}

// randomHex returns 2n lowercase hex digits from crypto/rand, retrying the
// (cosmically unlikely) all-zero draw the spec forbids.
func randomHex(n int) string {
	b := make([]byte, n)
	for {
		_, _ = rand.Read(b)
		for _, c := range b {
			if c != 0 {
				return hex.EncodeToString(b)
			}
		}
	}
}

// SpanIDFor derives a deterministic 16-hex-digit span ID from the trace ID
// and a structural path (e.g. "0.2.1", the span's position in its tree).
// Deriving IDs from coordinates instead of emission order is what keeps
// span trees byte-identical across serial/parallel builds and resume
// replays.
func SpanIDFor(traceID string, path string) string {
	h := fnv.New64a()
	_, _ = h.Write([]byte(traceID))
	_, _ = h.Write([]byte{'|'})
	_, _ = h.Write([]byte(path))
	v := h.Sum64()
	if v == 0 {
		v = 1 // the all-zero span ID is invalid per spec
	}
	return fmt.Sprintf("%016x", v)
}

// Sample decides head sampling for a trace deterministically from the trace
// ID: the low 8 bytes, read as a fraction of 2^64, are compared against
// rate. rate >= 1 keeps everything, rate <= 0 nothing; the same trace ID
// yields the same verdict in every process, so a distributed deployment
// makes one coherent decision per trace.
func Sample(traceID string, rate float64) bool {
	if rate >= 1 {
		return true
	}
	if rate <= 0 || !validHex(traceID, 32) {
		return false
	}
	b, err := hex.DecodeString(traceID[16:])
	if err != nil {
		return false
	}
	var v uint64
	for _, c := range b {
		v = v<<8 | uint64(c)
	}
	return float64(v)/float64(1<<63)/2 < rate
}

// ctxKey keys the traceparent on a context.
type ctxKey struct{}

// WithContext attaches the traceparent to the context.
func WithContext(ctx context.Context, tp Traceparent) context.Context {
	return context.WithValue(ctx, ctxKey{}, tp)
}

// FromContext extracts the context's traceparent, reporting whether one was
// attached.
func FromContext(ctx context.Context) (Traceparent, bool) {
	tp, ok := ctx.Value(ctxKey{}).(Traceparent)
	return tp, ok
}
