package spillbound

import (
	"context"

	"repro/internal/engine"
	"repro/internal/telemetry"
)

// Test spaces shared with the external test package, whose tests run
// SpillBound and AlignedBound side by side.
var (
	Build2D = build2D
	Build3D = build3D
	Build4D = build4D
)

// Record runs fn with a fresh recorder on the context and returns the
// outcome with the recorded events, the run's only execution record.
func Record(fn func(context.Context) (Outcome, error)) (Outcome, []telemetry.Event) {
	rec := telemetry.NewRecorder()
	out, _ := fn(telemetry.With(context.Background(), rec))
	return out, rec.Events()
}

// Executions returns the events charged to the run's ledger: its budgeted
// spill and regular executions, in order.
func Executions(events []telemetry.Event) []telemetry.Event {
	var out []telemetry.Event
	for _, ev := range events {
		if ev.Charged() {
			out = append(out, ev)
		}
	}
	return out
}

// run runs r against e under a recorder.
func run(r *Runner, e engine.ContextExecutor) (Outcome, []telemetry.Event) {
	return Record(func(ctx context.Context) (Outcome, error) { return r.RunContext(ctx, e) })
}
