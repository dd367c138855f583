package telemetry

import (
	"fmt"
	"strconv"
)

// RenderTrace renders the event stream into the human-readable run
// transcript: execution lines first in recorded order, then the resilience
// notes, then the degradation record. It is the only renderer of a run's
// executions. Purely diagnostic events
// (ContourEnter, HalfSpacePrune, BudgetSpend, Done) render nothing — they
// exist for machine consumption.
func RenderTrace(events []Event) string {
	return string(AppendTrace(make([]byte, 0, 16*len(events)), events))
}

// AppendTrace appends RenderTrace's transcript to b.
func AppendTrace(b []byte, events []Event) []byte {
	for i := range events {
		b = appendExec(b, &events[i])
	}
	for i := range events {
		if ev := &events[i]; ev.Kind == Retry {
			b = append(b, "resilience: "...)
			b = append(b, ev.Detail...)
			b = append(b, '\n')
		}
	}
	for i := range events {
		ev := &events[i]
		if ev.Kind != Degrade {
			continue
		}
		b = fmt.Appendf(b, "degraded: %s\n", ev.Detail)
		b = append(b, "degraded: falling back to native plan at estimate "...)
		b = appendLocation(b, ev.Location)
		b = fmt.Appendf(b, ", cost %.4g\n", ev.Spent)
		// Guarantee -1 is the JSON-safe marker for "no MSO bound" (the
		// selection strategies); bounded strategies render the number.
		if ev.Guarantee < 0 {
			b = fmt.Appendf(b, "degraded: guarantee downgraded from none (%s) to +Inf (native, no MSO bound)\n",
				ev.Algorithm)
		} else {
			b = fmt.Appendf(b, "degraded: guarantee downgraded from %.4g (%s) to +Inf (native, no MSO bound)\n",
				ev.Guarantee, ev.Algorithm)
		}
	}
	return b
}

// appendExec appends the trace line of one execution event, in the
// paper's notation (lowercase p for spill-mode). The budgeted execution
// lines, the bulk of every trace, are written with strconv; the rare
// guard, native and resume lines with fmt.
func appendExec(b []byte, ev *Event) []byte {
	switch ev.Kind {
	case PlanExec:
		if ev.Mode == "native" {
			b = append(b, "native: plan at estimate "...)
			b = appendLocation(b, ev.Location)
			return fmt.Appendf(b, ", cost %.4g\n", ev.Spent)
		}
		if ev.Mode == "guard" {
			// The ESS-escape safe path: the max-corner terminal plan run in
			// native (unbudgeted) mode.
			return fmt.Appendf(b, "guard: safe-path terminal plan P%d, cost %.4g\n", ev.PlanID, ev.Spent)
		}
		b = appendExecHead(b, ev, 'P')
		if ev.Completed {
			return append(b, " ✓\n"...)
		}
		return append(b, " ✗\n"...)
	case SpillExec:
		b = appendExecHead(b, ev, 'p')
		b = append(b, " spill dim "...)
		b = strconv.AppendInt(b, int64(ev.Dim), 10)
		b = append(b, " → "...)
		b = strconv.AppendFloat(b, ev.Learned, 'g', 3, 64)
		if ev.Repeat {
			b = append(b, " (repeat)"...)
		}
		return append(b, '\n')
	case RunResume:
		// Only durable resumed runs carry this event, so legacy traces stay
		// byte-identical.
		return fmt.Appendf(b, "resumed: run %s from checkpoint at IC%d, ledger %.4g\n",
			ev.Detail, ev.Contour, ev.Spent)
	case BudgetAbort:
		// Guard events appear only on budget-aborted (faulted) runs, so
		// clean traces stay byte-identical.
		return fmt.Appendf(b, "guard: budget abort at ceiling %.4g (budget %.4g)\n", ev.Spent, ev.Budget)
	case ESSEscape:
		return fmt.Appendf(b, "guard: ess escape on dim %d (learned %.3g), taking safe path\n",
			ev.Dim, ev.Learned)
	}
	return b
}

// appendExecHead appends "IC<contour>: <mark><plan>|<budget>", the budget
// as fmt's %.4g writes it.
func appendExecHead(b []byte, ev *Event, mark byte) []byte {
	b = append(b, "IC"...)
	b = strconv.AppendInt(b, int64(ev.Contour), 10)
	b = append(b, ": "...)
	b = append(b, mark)
	b = strconv.AppendInt(b, int64(ev.PlanID), 10)
	b = append(b, '|')
	return strconv.AppendFloat(b, ev.Budget, 'g', 4, 64)
}

// appendLocation appends a selectivity location exactly as cost.Location
// renders it ("(0.02, 0.3)"); replicated here so telemetry stays
// dependency-free.
func appendLocation(b []byte, loc []float64) []byte {
	b = append(b, '(')
	for d, v := range loc {
		if d > 0 {
			b = append(b, ", "...)
		}
		b = strconv.AppendFloat(b, v, 'g', 3, 64)
	}
	return append(b, ')')
}

// CountRetries counts the actual retry attempts in the stream. Final
// ("giving up") notes are records of exhaustion, not attempts, and are
// excluded.
func CountRetries(events []Event) int {
	n := 0
	for _, ev := range events {
		if ev.Kind == Retry && !ev.Final {
			n++
		}
	}
	return n
}

// Degradation reports whether the stream records a Native-plan fallback and
// the terminal failure that forced it.
func Degradation(events []Event) (degraded bool, reason string) {
	for _, ev := range events {
		if ev.Kind == Degrade {
			return true, ev.Detail
		}
	}
	return false, ""
}
