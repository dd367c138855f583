package metrics

import (
	"context"

	"repro/internal/cost"
	"repro/internal/ess"
	"repro/internal/par"
)

// ScenarioOutcome is one strategy run at one true location under one fault
// scenario: the charged cost plus the operational outcome the fault plan
// provoked.
type ScenarioOutcome struct {
	// TotalCost is the strategy's total charged cost (partial for crashed
	// runs — the spend up to the crash point is real).
	TotalCost float64
	// GuardVerdict is the run's guard intervention: "budget_abort",
	// "ess_escape", "crashed", or "" for a clean run.
	GuardVerdict string
	// Degraded reports the run fell back to the Native plan.
	Degraded bool
	// Skip excludes the outcome from the aggregates entirely (the run could
	// not be accounted — e.g. an unexpected terminal error).
	Skip bool
}

// ScenarioRunFunc executes a strategy at truth under the suite scenario with
// the given index. Implementations must be safe for concurrent use when the
// sweep runs with Workers > 1.
type ScenarioRunFunc func(scenario int, truth cost.Location) ScenarioOutcome

// RegimeResult aggregates a scenario sweep within one error regime: the
// familiar MSO/ASO pair plus the guardrail-intervention census that plain
// sub-optimality numbers hide.
type RegimeResult struct {
	// Regime is the regime label the result aggregates.
	Regime string
	// Scenarios is how many suite scenarios fed the aggregate.
	Scenarios int
	// MSO is the worst sub-optimality over every (scenario, location) pair.
	MSO float64
	// MSOCell is the grid cell attaining MSO (-1 when nothing ran).
	MSOCell int
	// ASO is the average sub-optimality over every accounted pair.
	ASO float64
	// Locations counts the accounted (scenario, location) evaluations.
	Locations int
	// Guard counts runs by guard verdict ("budget_abort", "ess_escape",
	// "crashed"); clean runs are not counted.
	Guard map[string]int
	// Degraded counts runs that fell back to the Native plan.
	Degraded int
	// Skipped counts evaluations excluded from the aggregates.
	Skipped int

	// Cells and per-cell aggregates over the swept sample, parallel slices:
	// SubOpt[i] is the worst sub-optimality observed at Cells[i] across the
	// regime's scenarios, Verdict[i] the most severe guard verdict there
	// ("" when every scenario ran clean). They feed the robustness atlas.
	Cells   []int
	SubOpt  []float64
	Verdict []string
}

// verdictRank orders guard verdicts by severity for the per-cell overlay:
// an escape (the guarantee's last resort) dominates a budget abort, which
// dominates a crash (recoverable by design), which dominates degradation.
func verdictRank(v string) int {
	switch v {
	case "ess_escape":
		return 4
	case "budget_abort":
		return 3
	case "crashed":
		return 2
	case "degraded":
		return 1
	}
	return 0
}

// ScenarioSweepContext evaluates run for every suite scenario at (a sample
// of) every grid cell and aggregates per regime. regimeOf[i] labels scenario
// i's regime; results are keyed and ordered by first appearance in regimeOf.
// The context is polled between evaluations; on cancellation the partial
// aggregates are returned with the context's error. The location sample is
// drawn once (SweepOptions) and shared by every scenario, so regimes are
// compared on identical ground truth.
func ScenarioSweepContext(ctx context.Context, s *ess.Space, regimeOf []string, run ScenarioRunFunc, opts SweepOptions) ([]*RegimeResult, error) {
	g := s.Grid
	cells := pickCells(g.Size(), opts)

	// One result slot per regime, in first-appearance order.
	byRegime := map[string]*RegimeResult{}
	var order []*RegimeResult
	for _, label := range regimeOf {
		if byRegime[label] == nil {
			r := &RegimeResult{
				Regime: label, MSOCell: -1, Guard: map[string]int{},
				Cells:   cells,
				SubOpt:  make([]float64, len(cells)),
				Verdict: make([]string, len(cells)),
			}
			byRegime[label] = r
			order = append(order, r)
		}
		byRegime[label].Scenarios++
	}

	// The work product: every (scenario, cell) pair, evaluated independently.
	type unit struct{ sc, cell int }
	units := make([]unit, 0, len(regimeOf)*len(cells))
	for sc := range regimeOf {
		for i := range cells {
			units = append(units, unit{sc, i})
		}
	}
	type eval struct {
		out    ScenarioOutcome
		subOpt float64
		done   bool
	}
	evals := make([]eval, len(units))

	par.Each(ctx, len(units), opts.Workers, func(_, i int) {
		u := units[i]
		out := run(u.sc, g.Location(cells[u.cell]))
		evals[i] = eval{out: out, subOpt: out.TotalCost / s.CostAt(cells[u.cell]), done: true}
	})
	err := ctx.Err()

	// Serial aggregation keeps a completed sweep deterministic regardless of
	// worker count; an aborted sweep aggregates whatever evaluations finished
	// before the cancellation (mirroring SweepContext's partial return).
	sums := map[string]float64{}
	for i := range units {
		u, ev := units[i], evals[i]
		if !ev.done {
			continue
		}
		r := byRegime[regimeOf[u.sc]]
		if ev.out.Skip {
			r.Skipped++
			continue
		}
		r.Locations++
		sums[r.Regime] += ev.subOpt
		if ev.subOpt > r.MSO {
			r.MSO = ev.subOpt
			r.MSOCell = cells[u.cell]
		}
		if ev.subOpt > r.SubOpt[u.cell] {
			r.SubOpt[u.cell] = ev.subOpt
		}
		verdict := ev.out.GuardVerdict
		if verdict != "" {
			r.Guard[verdict]++
		}
		if ev.out.Degraded {
			r.Degraded++
			if verdict == "" {
				verdict = "degraded"
			}
		}
		if verdictRank(verdict) > verdictRank(r.Verdict[u.cell]) {
			r.Verdict[u.cell] = verdict
		}
	}
	for _, r := range order {
		if r.Locations > 0 {
			r.ASO = sums[r.Regime] / float64(r.Locations)
		}
	}
	return order, err
}
