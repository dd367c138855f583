package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
)

// fmtRenderTrace is the fmt-based transcript renderer AppendTrace
// replaced, kept as the reference it must reproduce.
func fmtRenderTrace(events []Event) string {
	var b strings.Builder
	loc := func(l []float64) string {
		s := "("
		for d, v := range l {
			if d > 0 {
				s += ", "
			}
			s += fmt.Sprintf("%.3g", v)
		}
		return s + ")"
	}
	for _, ev := range events {
		switch ev.Kind {
		case PlanExec:
			switch ev.Mode {
			case "native":
				fmt.Fprintf(&b, "native: plan at estimate %s, cost %.4g\n", loc(ev.Location), ev.Spent)
			case "guard":
				fmt.Fprintf(&b, "guard: safe-path terminal plan P%d, cost %.4g\n", ev.PlanID, ev.Spent)
			default:
				mark := "✗"
				if ev.Completed {
					mark = "✓"
				}
				fmt.Fprintf(&b, "IC%d: P%d|%.4g %s\n", ev.Contour, ev.PlanID, ev.Budget, mark)
			}
		case SpillExec:
			tag := ""
			if ev.Repeat {
				tag = " (repeat)"
			}
			fmt.Fprintf(&b, "IC%d: p%d|%.4g spill dim %d → %.3g%s\n",
				ev.Contour, ev.PlanID, ev.Budget, ev.Dim, ev.Learned, tag)
		case RunResume:
			fmt.Fprintf(&b, "resumed: run %s from checkpoint at IC%d, ledger %.4g\n",
				ev.Detail, ev.Contour, ev.Spent)
		case BudgetAbort:
			fmt.Fprintf(&b, "guard: budget abort at ceiling %.4g (budget %.4g)\n", ev.Spent, ev.Budget)
		case ESSEscape:
			fmt.Fprintf(&b, "guard: ess escape on dim %d (learned %.3g), taking safe path\n",
				ev.Dim, ev.Learned)
		}
	}
	for _, ev := range events {
		if ev.Kind == Retry {
			b.WriteString("resilience: " + ev.Detail + "\n")
		}
	}
	for _, ev := range events {
		if ev.Kind == Degrade {
			fmt.Fprintf(&b, "degraded: %s\n", ev.Detail)
			fmt.Fprintf(&b, "degraded: falling back to native plan at estimate %s, cost %.4g\n",
				loc(ev.Location), ev.Spent)
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

// TestAppendTraceMatchesFmtRenderer renders every event kind, at ordinary
// and at edge values (±Inf, NaN, −0, subnormal and huge budgets), with
// AppendTrace and with the fmt reference, one event at a time and as one
// stream.
func TestAppendTraceMatchesFmtRenderer(t *testing.T) {
	kinds := []Kind{ContourEnter, PlanExec, SpillExec, HalfSpacePrune, BudgetSpend, BudgetAbort,
		ESSEscape, Retry, Degrade, CheckpointSave, RunResume, Done, BuildChunk, BuildMemo,
		PeerDown, PeerUp, Failover, BrownoutStage}
	values := []float64{0, math.Copysign(0, -1), 1, -1, 4096, 1234.5678, 8e-4, 0.25, 1e-7,
		5e-324, 1e21, 123456789, math.Inf(1), math.Inf(-1), math.NaN()}
	var stream []Event
	for _, k := range kinds {
		for _, mode := range []string{"", "native", "guard"} {
			for i, v := range values {
				var loc []float64
				for k := 0; k < i%4; k++ {
					loc = append(loc, values[(i+k)%len(values)])
				}
				ev := Event{
					Seq: len(stream), Kind: k, Contour: i, Dim: i%3 - 1, PlanID: 7 * i,
					Budget: v, Spent: values[(i+1)%len(values)], Learned: values[(i+2)%len(values)],
					Completed: i%2 == 0, Repeat: i%3 == 0, Mode: mode,
					Location: loc, Detail: fmt.Sprintf("r%d <&> note", i),
					Guarantee: values[(i+3)%len(values)], Algorithm: "spillbound",
				}
				one := []Event{ev}
				if got, want := string(AppendTrace(nil, one)), fmtRenderTrace(one); got != want {
					t.Fatalf("%s/%q budget %v:\n got %q\nwant %q", k, mode, v, got, want)
				}
				stream = append(stream, ev)
			}
		}
	}
	if got, want := RenderTrace(stream), fmtRenderTrace(stream); got != want {
		t.Fatalf("stream of %d events renders differently", len(stream))
	}
	if got := string(AppendTrace([]byte("prefix\n"), stream[:3])); got != "prefix\n"+fmtRenderTrace(stream[:3]) {
		t.Fatalf("AppendTrace does not append: %q", got)
	}
}

// FuzzEventJSON holds Event.AppendJSON to encoding/json: for any field
// values the bytes must equal json.Marshal's, and a NaN or infinite float
// must fail both.
func FuzzEventJSON(f *testing.F) {
	f.Add(0, "plan_exec", 1, -1, 3, 4096.0, 1024.0, true, 0.0, false, 0.0, "", 0.0, 0.0, uint8(0), "", false, 0.0, 0.0, 0.0, "", 0, 0)
	f.Add(7, "spill_exec", 2, 1, 6, 4.0, 4.0, false, 8e-4, true, 1.5, "spill", 0.02, 0.3, uint8(2), "", false, 0.0, 0.0, 0.0, "", 0, 0)
	f.Add(9, "degrade", 0, -1, 0, -1.0, 75.0, false, 0.0, false, 0.0, "", 1e-7, 1e21, uint8(2),
		"engine: <boom> & \"quote\" \\ \b\f\n\r\t\x00\x1f\x7f", true, 1e-6, 9.999999999999999e20, -1.0, "spillbound", 0, 0)
	f.Add(1, "retry", 0, -1, 0, math.Copysign(0, -1), 5e-324, false, 2.2250738585072014e-308, false, 0.0, "mode\u2028", 0.0, 0.0, uint8(1),
		"bad utf8 \xff\xfe \xe2\x80 ok \u2029 é ✓ → \U0001F600", false, 0.0, 0.0, 0.0, "a\u2028b", 3, 9)
	f.Add(2, "done", 0, -1, 0, math.NaN(), 0.0, false, 0.0, false, 0.0, "", 0.0, 0.0, uint8(0), "", false, 0.0, 0.0, 0.0, "", 0, 0)
	f.Add(3, "done", 0, -1, 0, 0.0, 0.0, false, 0.0, false, 0.0, "", math.Inf(-1), 0.0, uint8(1), "", false, math.Inf(1), 0.0, 0.0, "", 0, 0)
	f.Add(-4, "", -5, 0, -6, -1e-7, -1.5e-7, false, 9.99e-7, false, -1e22, "", -0.0, 1e20, uint8(2), "", false, 123456789012345678.0, 1e-320, 0.1, "", -1, -2)

	f.Fuzz(func(t *testing.T, seq int, kind string, contour, dim, planID int, budget, spent float64,
		completed bool, learned float64, repeat bool, penalty float64, mode string, loc0, loc1 float64,
		nloc uint8, detail string, final bool, totalCost, subOpt, guarantee float64, algorithm string,
		cellLo, cellHi int) {
		ev := Event{
			Seq: seq, Kind: Kind(kind), Contour: contour, Dim: dim, PlanID: planID,
			Budget: budget, Spent: spent, Completed: completed, Learned: learned, Repeat: repeat,
			Penalty: penalty, Mode: mode, Detail: detail, Final: final,
			TotalCost: totalCost, SubOpt: subOpt, Guarantee: guarantee, Algorithm: algorithm,
			CellLo: cellLo, CellHi: cellHi,
		}
		ev.Location = []float64{loc0, loc1, loc0}[:nloc%4]
		if nloc%5 == 4 {
			ev.Location = []float64{} // empty, not nil: omitted all the same
		}
		want, werr := json.Marshal(ev)
		got, gerr := ev.AppendJSON([]byte("x"))
		if werr != nil || gerr != nil {
			if werr == nil || gerr == nil {
				t.Fatalf("encoding/json error %v, AppendJSON error %v", werr, gerr)
			}
			if string(got) != "x" {
				t.Fatalf("AppendJSON failed but appended %q", got[1:])
			}
			return
		}
		if string(got[1:]) != string(want) {
			t.Fatalf("AppendJSON:\n got %s\nwant %s", got[1:], want)
		}
	})
}
