package telemetry

import (
	"strings"
	"testing"
)

// A crash-resumed run's event stream is a suffix: it opens with RunResume
// carrying the checkpoint coordinates, then continues with ordinary
// execution events. These tests pin the transcript rendering of that suffix
// and of the guard events that only appear on faulted runs.

func TestRenderTraceResumeSuffix(t *testing.T) {
	events := []Event{
		{Kind: RunResume, Dim: -1, Detail: "r7", Contour: 2, Spent: 1536},
		{Kind: ContourEnter, Contour: 2, Dim: -1},
		{Kind: PlanExec, Contour: 2, Dim: -1, PlanID: 3, Budget: 4096, Completed: true},
		{Kind: Done, Dim: -1, TotalCost: 5632, SubOpt: 1.2},
	}
	got := RenderTrace(events)
	want := "resumed: run r7 from checkpoint at IC2, ledger 1536\n" +
		"IC2: P3|4096 ✓\n"
	if got != want {
		t.Errorf("resume suffix:\n%q\nwant:\n%q", got, want)
	}
}

func TestRenderTraceResumeOrderingAndLedgerFormat(t *testing.T) {
	// The resumed line renders in recorded order — before the suffix's
	// executions, never hoisted or sunk — and the ledger uses %.4g, so a
	// zero carry-over renders as "0" and a fractional one stays compact.
	events := []Event{
		{Kind: RunResume, Dim: -1, Detail: "r0", Contour: 0, Spent: 0},
		{Kind: SpillExec, Contour: 0, Dim: 1, PlanID: 2, Budget: 512, Learned: 0.25},
	}
	got := RenderTrace(events)
	if !strings.HasPrefix(got, "resumed: run r0 from checkpoint at IC0, ledger 0\n") {
		t.Errorf("zero-ledger resume line:\n%q", got)
	}
	if strings.Index(got, "resumed:") > strings.Index(got, "IC0:") {
		t.Errorf("resume line rendered after the suffix executions:\n%q", got)
	}
	frac := RenderTrace([]Event{
		{Kind: RunResume, Dim: -1, Detail: "r1", Contour: 1, Spent: 1234.5678},
	})
	if frac != "resumed: run r1 from checkpoint at IC1, ledger 1235\n" {
		t.Errorf("ledger %%.4g rendering = %q", frac)
	}
}

func TestRenderTraceCleanStreamHasNoResumeLine(t *testing.T) {
	// First-incarnation streams carry no RunResume event, so legacy traces
	// stay byte-identical: no "resumed:" line may appear.
	events := []Event{
		{Kind: ContourEnter, Contour: 1, Dim: -1},
		{Kind: PlanExec, Contour: 1, Dim: -1, PlanID: 5, Budget: 1024, Completed: true},
		{Kind: Done, Dim: -1, TotalCost: 1024, SubOpt: 1},
	}
	if got := RenderTrace(events); strings.Contains(got, "resumed") {
		t.Errorf("clean stream rendered a resume line:\n%q", got)
	}
}

func TestRenderTraceGuardLines(t *testing.T) {
	// Guard events appear only on faulted runs: the watchdog's budget abort,
	// the ESS escape, and the safe-path terminal plan run in guard mode.
	events := []Event{
		{Kind: RunResume, Dim: -1, Detail: "r9", Contour: 3, Spent: 100},
		{Kind: ESSEscape, Dim: 1, Learned: 0.125},
		{Kind: PlanExec, Dim: -1, Mode: "guard", PlanID: 7, Spent: 256},
		{Kind: BudgetAbort, Dim: -1, Budget: 300, Spent: 301.5},
	}
	got := RenderTrace(events)
	want := "resumed: run r9 from checkpoint at IC3, ledger 100\n" +
		"guard: ess escape on dim 1 (learned 0.125), taking safe path\n" +
		"guard: safe-path terminal plan P7, cost 256\n" +
		"guard: budget abort at ceiling 301.5 (budget 300)\n"
	if got != want {
		t.Errorf("guard lines:\n%q\nwant:\n%q", got, want)
	}
}

func TestRenderTraceResumeThenDegrade(t *testing.T) {
	// A resumed incarnation that subsequently degrades renders the resume
	// line in the execution section and the degradation record at the end;
	// Guarantee -1 is the JSON-safe "no MSO bound" marker and renders as
	// "none".
	events := []Event{
		{Kind: RunResume, Dim: -1, Detail: "r2", Contour: 1, Spent: 50},
		{Kind: Degrade, Dim: -1, Detail: "engine: boom",
			Location: []float64{0.5}, Spent: 75, Guarantee: -1, Algorithm: "native"},
	}
	got := RenderTrace(events)
	want := "resumed: run r2 from checkpoint at IC1, ledger 50\n" +
		"degraded: engine: boom\n" +
		"degraded: falling back to native plan at estimate (0.5), cost 75\n" +
		"degraded: guarantee downgraded from none (native) to +Inf (native, no MSO bound)\n"
	if got != want {
		t.Errorf("resume+degrade:\n%q\nwant:\n%q", got, want)
	}
}

// TestRenderTraceExecutionLines pins the paper's trace notation of the
// execution events: lowercase p for a spill-mode execution (with its
// repeat tag), uppercase P with the completion mark for a regular one.
func TestRenderTraceExecutionLines(t *testing.T) {
	events := []Event{
		{Kind: SpillExec, Contour: 2, Dim: 0, PlanID: 6, Budget: 4, Learned: 8e-4},
		{Kind: SpillExec, Contour: 2, Dim: 1, PlanID: 6, Budget: 4, Learned: 0.25, Repeat: true},
		{Kind: PlanExec, Contour: 3, Dim: -1, PlanID: 7, Budget: 2048},
		{Kind: PlanExec, Contour: 3, Dim: -1, PlanID: 2, Budget: 2048, Completed: true},
	}
	want := "IC2: p6|4 spill dim 0 → 0.0008\n" +
		"IC2: p6|4 spill dim 1 → 0.25 (repeat)\n" +
		"IC3: P7|2048 ✗\n" +
		"IC3: P2|2048 ✓\n"
	if got := RenderTrace(events); got != want {
		t.Errorf("execution lines:\n%q\nwant:\n%q", got, want)
	}
}
