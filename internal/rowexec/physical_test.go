package rowexec

import (
	"context"
	"testing"

	"repro/internal/aligned"
	"repro/internal/bouquet"
	"repro/internal/ess"
	"repro/internal/plan"
	"repro/internal/spillbound"
	"repro/internal/telemetry"
)

// TestSpillBoundOnRealRows is the end-to-end physical run: the full
// SpillBound discovery loop drives the row engine (via the Executor
// adapter) instead of the cost-model simulator. Contours and plan choices
// still come from the optimizer's model; budgets are enforced — and
// selectivities learnt — by actual tuple execution. The realized
// sub-optimality is measured against the best physical execution and must
// stay within the structural bound inflated by the model↔engine
// discrepancy (a bounded cost-model error in the Sec 7 sense).
func TestSpillBoundOnRealRows(t *testing.T) {
	e, m := smallEngine(t)
	s, err := ess.BuildParallelContext(context.Background(), m, ess.NewGrid(2, 10, 1e-4), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := spillbound.NewRunner(s)

	rec := telemetry.NewRecorder()
	out, err := r.RunContext(telemetry.With(context.Background(), rec), &Adapter{E: e})
	if err != nil {
		t.Fatal(err)
	}
	events := rec.Events()
	if !out.Completed {
		t.Fatalf("physical SpillBound did not complete\n%s", telemetry.RenderTrace(events))
	}
	if out.TotalCost <= 0 {
		t.Fatal("no cost accounted")
	}

	// Physical oracle: cheapest measured execution among the POSP plans.
	best := -1.0
	for _, p := range s.Plans() {
		res, err := e.Run(p, 0)
		if err != nil || !res.Completed {
			continue
		}
		if best < 0 || res.Spent < best {
			best = res.Spent
		}
	}
	if best <= 0 {
		t.Fatal("no physical baseline")
	}
	subOpt := out.TotalCost / best
	// Generous inflation factor for model↔engine discrepancy.
	if bound := spillbound.Guarantee(2) * 4; subOpt > bound {
		t.Errorf("physical sub-optimality %.2f exceeds inflated bound %.2f\n%s",
			subOpt, bound, telemetry.RenderTrace(events))
	}
	execs := 0
	for _, ev := range events {
		if ev.Charged() {
			execs++
		}
		// Learned selectivities from real rows must match the data's
		// ground truth (1/NDV) when fully learnt.
		if ev.Kind == telemetry.HalfSpacePrune {
			want := []float64{1.0 / 400, 1.0 / 1000}[ev.Dim]
			if ev.Learned < want/2 || ev.Learned > want*2 {
				t.Errorf("dim %d: learnt %g from rows, ground truth ≈%g", ev.Dim, ev.Learned, want)
			}
		}
	}
	t.Logf("physical SpillBound: %d executions, sub-optimality %.2f vs best physical plan", execs, subOpt)
}

// TestPlanBouquetOnRealRows drives the PB protocol physically.
func TestPlanBouquetOnRealRows(t *testing.T) {
	e, m := smallEngine(t)
	s, err := ess.BuildParallelContext(context.Background(), m, ess.NewGrid(2, 10, 1e-4), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := bouquet.Reduce(s, 0.2)
	out, err := bouquet.RunContext(context.Background(), d, &Adapter{E: e}, s.ContourCosts(2), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Completed {
		t.Fatal("physical PlanBouquet did not complete")
	}
	if out.TotalCost <= 0 {
		t.Fatal("no cost accounted")
	}
}

// TestAlignedBoundOnRealRows drives AB physically.
func TestAlignedBoundOnRealRows(t *testing.T) {
	e, m := smallEngine(t)
	s, err := ess.BuildParallelContext(context.Background(), m, ess.NewGrid(2, 10, 1e-4), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := aligned.NewRunner(s)
	rec := telemetry.NewRecorder()
	out, err := r.RunContext(telemetry.With(context.Background(), rec), &Adapter{E: e})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Completed {
		t.Fatalf("physical AlignedBound did not complete\n%s", telemetry.RenderTrace(rec.Events()))
	}
}

func TestAdapterSpillOnAbsentPredicate(t *testing.T) {
	e, _ := smallEngine(t)
	a := &Adapter{E: e}
	// A bare scan applies no join predicate.
	sub := plan.New(&plan.Node{Kind: plan.SeqScan, Rel: 0})
	if _, ok, err := a.ExecuteSpillCtx(context.Background(), sub, 0, 100); err != nil || ok {
		t.Error("spill on absent predicate should report !ok")
	}
}
