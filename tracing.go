package repro

import (
	"context"
	"fmt"

	"repro/internal/trace"
)

// This file is the library's tracing surface: W3C trace-context propagation
// into runs and span trees derived from run event streams. The span model
// itself lives in internal/trace; everything here is a thin adapter so
// embedders never import internal packages.
//
// A run's trace identity resolves in this order: the context's traceparent
// (WithTraceparent, or the server middleware's parsed/minted header) wins;
// a durable run persists that trace ID in its checkpoint snapshot so a
// crash-resumed incarnation rejoins the same trace; otherwise a fresh
// random trace ID is minted per run. The span tree is a pure function of
// RunResult.Events — deterministic for a deterministic event stream.

// WithTraceparent attaches a W3C traceparent header value (version 00,
// "00-<trace-id>-<span-id>-<flags>") to the context: runs driven with the
// returned context report its trace ID in RunResult.TraceID, and durable
// runs persist it across crash-resume incarnations.
func WithTraceparent(ctx context.Context, header string) (context.Context, error) {
	tp, err := trace.Parse(header)
	if err != nil {
		return nil, fmt.Errorf("repro: %w", err)
	}
	return trace.WithContext(ctx, tp), nil
}

// TraceTree derives the run's span tree from its event stream and renders
// it as deterministic JSON: a run root span covering the cost ledger,
// contour child spans, plan/spill execution spans (with the engine's
// budget_spend accounting children), and zero-width markers for guard
// interventions, prunes, retries, checkpoints and crash resumes. Durations
// are in cost-ledger units, the only deterministic clock a run has.
func TraceTree(res RunResult) ([]byte, error) {
	return trace.FromRun(res.TraceID, res.Events).JSON()
}
