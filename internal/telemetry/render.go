package telemetry

import (
	"fmt"
	"strings"
)

// RenderTrace renders the event stream into the human-readable run
// transcript: execution lines first in recorded order, then the resilience
// notes, then the degradation record. It is the only renderer of a run's
// executions. Purely diagnostic events
// (ContourEnter, HalfSpacePrune, BudgetSpend, Done) render nothing — they
// exist for machine consumption.
func RenderTrace(events []Event) string {
	var b strings.Builder
	for _, ev := range events {
		renderExec(&b, ev)
	}
	for _, ev := range events {
		if ev.Kind == Retry {
			b.WriteString("resilience: ")
			b.WriteString(ev.Detail)
			b.WriteByte('\n')
		}
	}
	for _, ev := range events {
		if ev.Kind == Degrade {
			fmt.Fprintf(&b, "degraded: %s\n", ev.Detail)
			fmt.Fprintf(&b, "degraded: falling back to native plan at estimate %s, cost %.4g\n",
				formatLocation(ev.Location), ev.Spent)
			// Guarantee -1 is the JSON-safe marker for "no MSO bound" (the
			// selection strategies); bounded strategies render the number.
			if ev.Guarantee < 0 {
				fmt.Fprintf(&b, "degraded: guarantee downgraded from none (%s) to +Inf (native, no MSO bound)\n",
					ev.Algorithm)
			} else {
				fmt.Fprintf(&b, "degraded: guarantee downgraded from %.4g (%s) to +Inf (native, no MSO bound)\n",
					ev.Guarantee, ev.Algorithm)
			}
		}
	}
	return b.String()
}

// renderExec writes the trace line of one execution event, in the paper's
// notation (lowercase p for spill-mode).
func renderExec(b *strings.Builder, ev Event) {
	switch ev.Kind {
	case PlanExec:
		if ev.Mode == "native" {
			fmt.Fprintf(b, "native: plan at estimate %s, cost %.4g\n", formatLocation(ev.Location), ev.Spent)
			return
		}
		if ev.Mode == "guard" {
			// The ESS-escape safe path: the max-corner terminal plan run in
			// native (unbudgeted) mode.
			fmt.Fprintf(b, "guard: safe-path terminal plan P%d, cost %.4g\n", ev.PlanID, ev.Spent)
			return
		}
		mark := "✗"
		if ev.Completed {
			mark = "✓"
		}
		fmt.Fprintf(b, "IC%d: P%d|%.4g %s\n", ev.Contour, ev.PlanID, ev.Budget, mark)
	case SpillExec:
		tag := ""
		if ev.Repeat {
			tag = " (repeat)"
		}
		fmt.Fprintf(b, "IC%d: p%d|%.4g spill dim %d → %.3g%s\n",
			ev.Contour, ev.PlanID, ev.Budget, ev.Dim, ev.Learned, tag)
	case RunResume:
		// Only durable resumed runs carry this event, so legacy traces stay
		// byte-identical.
		fmt.Fprintf(b, "resumed: run %s from checkpoint at IC%d, ledger %.4g\n",
			ev.Detail, ev.Contour, ev.Spent)
	case BudgetAbort:
		// Guard events appear only on watchdog-aborted (faulted) runs, so
		// clean traces stay byte-identical.
		fmt.Fprintf(b, "guard: budget abort at ceiling %.4g (budget %.4g)\n", ev.Spent, ev.Budget)
	case ESSEscape:
		fmt.Fprintf(b, "guard: ess escape on dim %d (learned %.3g), taking safe path\n",
			ev.Dim, ev.Learned)
	}
}

// formatLocation renders a selectivity location exactly as cost.Location
// does ("(0.02, 0.3)"); replicated here so telemetry stays dependency-free.
func formatLocation(loc []float64) string {
	s := "("
	for d, v := range loc {
		if d > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%.3g", v)
	}
	return s + ")"
}

// CountRetries counts the actual retry attempts in the stream — the single
// source of truth for RunResult.Retries. Final ("giving up") notes are
// records of exhaustion, not attempts, and are excluded.
func CountRetries(events []Event) int {
	n := 0
	for _, ev := range events {
		if ev.Kind == Retry && !ev.Final {
			n++
		}
	}
	return n
}

// GuardVerdict derives the runtime-guard verdict from the stream — the
// single source of truth for RunResult.GuardVerdict. An ESS escape (the
// guard abandoned discovery for the safe path) dominates budget aborts
// (discovery continued and completed under the enforced ledger); a clean
// stream yields "".
func GuardVerdict(events []Event) string {
	verdict := ""
	for _, ev := range events {
		switch ev.Kind {
		case ESSEscape:
			return string(ESSEscape)
		case BudgetAbort:
			verdict = string(BudgetAbort)
		}
	}
	return verdict
}

// Degradation reports whether the stream records a Native-plan fallback and
// the terminal failure that forced it — the single source of truth for
// RunResult.Degraded / DegradedReason.
func Degradation(events []Event) (degraded bool, reason string) {
	for _, ev := range events {
		if ev.Kind == Degrade {
			return true, ev.Detail
		}
	}
	return false, ""
}
