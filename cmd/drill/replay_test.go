package main

import (
	"encoding/json"
	"flag"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite testdata/replay_arrivals.json from the current code")

// arrivalRow is one pinned arrival of the seeded open-loop process.
type arrivalRow struct {
	OffsetNs int64  `json:"offset_ns"`
	Class    string `json:"class"`
	Body     string `json:"body,omitempty"`
	SweepMax int    `json:"sweep_max"`
	Build    bool   `json:"build"`
}

// TestArrivalsGolden pins the replay's seeded arrival stream at the
// `make replay-smoke` parameters (seed 1, 30 s at 20/s, mix ["spillbound"])
// against testdata/replay_arrivals.json, byte for byte. The guardrail
// census depends on this trace, so a refactor that shifts one draw fails
// here. Run with -update to regenerate from the current code.
func TestArrivalsGolden(t *testing.T) {
	var rows []string
	for _, a := range arrivals() {
		ev := a.ev
		b, err := json.Marshal(arrivalRow{OffsetNs: int64(a.at), Class: ev.class, Body: ev.body, SweepMax: ev.sweepMax, Build: ev.build})
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, string(b))
	}
	got := "[\n" + strings.Join(rows, ",\n") + "\n]\n"
	path := filepath.Join("testdata", "replay_arrivals.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d arrivals)", path, len(rows))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got == string(want) {
		return
	}
	wantRows := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	gotRows := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
	for i := range gotRows {
		if i >= len(wantRows) || gotRows[i] != wantRows[i] {
			w := "<missing>"
			if i < len(wantRows) {
				w = wantRows[i]
			}
			t.Fatalf("arrival stream diverges at line %d:\n got  %s\n want %s", i+1, gotRows[i], w)
		}
	}
	t.Fatalf("arrival stream has %d lines, golden %d", len(gotRows), len(wantRows))
}

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		q    float64
		want float64
	}{
		{0.50, 5},
		{0.95, 10},
		{0.99, 10},
		{0.10, 1},
	}
	for _, tc := range cases {
		if got := percentile(s, tc.q); got != tc.want {
			t.Errorf("p%g = %g, want %g", tc.q*100, got, tc.want)
		}
	}
	if got := percentile(nil, 0.99); got != 0 {
		t.Errorf("empty sample p99 = %g, want 0", got)
	}
	if got := percentile([]float64{7}, 0.5); got != 7 {
		t.Errorf("singleton p50 = %g", got)
	}
}

func TestPickIsSeedDeterministic(t *testing.T) {
	draw := func() []trafficEvent {
		rng := rand.New(rand.NewSource(99))
		out := make([]trafficEvent, 200)
		for i := range out {
			out[i] = pick(rng, 99, []string{"spillbound", "minmaxregret"})
		}
		return out
	}
	a, b := draw(), draw()
	counts := map[string]int{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs across identically-seeded draws: %+v vs %+v", i, a[i], b[i])
		}
		counts[a[i].class]++
	}
	// Every traffic class must appear in a 200-event trace; the scenario
	// classes are what make the guardrail census non-vacuous.
	for _, class := range []string{"run", "run:adversarial", "run:correlated", "run:degrade", "sweep", "build"} {
		if counts[class] == 0 {
			t.Errorf("class %s absent from a 200-event trace", class)
		}
	}
}

func TestRecorderCensus(t *testing.T) {
	rec := newRecorder()
	events := []telemetry.Event{
		{Kind: telemetry.PlanExec, Spent: 10},
		{Kind: telemetry.SpillExec, Spent: 4},
		{Kind: telemetry.Retry},
		{Kind: telemetry.CheckpointSave},
		{Kind: telemetry.BudgetAbort},
		{Kind: telemetry.Done},
	}
	rec.observe("run", "spillbound", "ok", 5*time.Millisecond, runReply{GuardVerdict: "budget_abort", Events: events})
	rec.observe("run", "penaltyaware", "ok", 10*time.Millisecond, runReply{GuardVerdict: "ess_escape"})
	rec.observe("run", "spillbound", "shed", time.Millisecond, runReply{})
	rec.observe("build:chaos", "", "breaker", time.Millisecond, runReply{})
	rec.observe("sweep", "", "error", time.Millisecond, runReply{})
	classes, strategies, guard := rec.snapshot()
	if guard.BudgetAborts != 1 || guard.ESSEscapes != 1 || guard.Sheds != 1 ||
		guard.BreakerRejections != 1 || guard.UnexpectedFailures != 1 || guard.DegradedFallbacks != 0 {
		t.Errorf("census off: %+v", guard)
	}
	cs := classes["run"]
	if cs == nil || cs.Count != 3 || cs.Statuses["ok"] != 2 || cs.Statuses["shed"] != 1 {
		t.Errorf("run class off: %+v", cs)
	}
	// Phase breakdown: only the run with an event stream contributes, and
	// its costs land in the right buckets.
	if p := cs.Phases; p == nil || p.Runs != 1 || p.ExecCost != 10 || p.SpillCost != 4 ||
		p.Retries != 1 || p.Checkpoints != 1 || p.Guard != 1 {
		t.Errorf("run phase breakdown off: %+v", cs.Phases)
	}
	if classes["sweep"].Phases != nil {
		t.Errorf("sweep class should carry no phase breakdown: %+v", classes["sweep"].Phases)
	}
	if cs.P50Ms <= 0 || cs.P99Ms < cs.P50Ms {
		t.Errorf("percentiles off: p50=%g p99=%g", cs.P50Ms, cs.P99Ms)
	}
	// Per-strategy breakout: only run traffic with a strategy is keyed.
	if st := strategies["spillbound"]; st == nil || st.Count != 2 || st.P99Ms <= 0 {
		t.Errorf("spillbound strategy stats off: %+v", st)
	}
	if st := strategies["penaltyaware"]; st == nil || st.Count != 1 {
		t.Errorf("penaltyaware strategy stats off: %+v", st)
	}
	if len(strategies) != 2 {
		t.Errorf("strategies = %d keys, want 2", len(strategies))
	}
}

// TestRecorderDegraded feeds the recorder run replies as fire decodes them
// from the wire: only a reply flagged degraded counts as a fallback.
func TestRecorderDegraded(t *testing.T) {
	rec := newRecorder()
	for _, body := range []string{
		`{"guardVerdict":"budget_abort","degraded":true,"events":[{"kind":"degrade","spent":7}]}`,
		`{"guardVerdict":"ok"}`,
	} {
		var reply runReply
		if err := json.Unmarshal([]byte(body), &reply); err != nil {
			t.Fatal(err)
		}
		rec.observe("run", "spillbound", "ok", time.Millisecond, reply)
	}
	classes, _, guard := rec.snapshot()
	if guard.DegradedFallbacks != 1 || guard.BudgetAborts != 1 {
		t.Errorf("census off: %+v", guard)
	}
	if p := classes["run"].Phases; p == nil || p.DegradeCost != 7 {
		t.Errorf("degraded run's phase breakdown off: %+v", p)
	}
}

func TestRecorderTraceparent(t *testing.T) {
	rec := newRecorder()
	good := http.Header{}
	good.Set("Traceparent", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	good.Set("X-Request-ID", "4bf92f3577b34da6a3ce929d0e0e4736")
	rec.observeTraceparent(good)
	garbled := http.Header{}
	garbled.Set("Traceparent", "not-a-traceparent")
	rec.observeTraceparent(garbled)
	noRequestID := http.Header{}
	noRequestID.Set("Traceparent", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	rec.observeTraceparent(noRequestID)
	_, _, guard := rec.snapshot()
	if guard.TraceparentViolations != 2 {
		t.Errorf("traceparent violations = %d, want 2 (garbled header + missing request id)",
			guard.TraceparentViolations)
	}
}

func TestReportProblems(t *testing.T) {
	good := &report{
		Classes: map[string]*classStats{"run": {P99Ms: 12}},
		Guardrails: guardrails{
			BudgetAborts: 1, ESSEscapes: 2, DegradedFallbacks: 1, Sheds: 3,
			BreakerRejections: 1, BreakerOpened: true,
		},
		Goroutines: leakCheck{Settled: true},
	}
	if p := good.problems(); len(p) != 0 {
		t.Errorf("good report flagged: %v", p)
	}
	bad := &report{Classes: map[string]*classStats{}}
	if p := bad.problems(); len(p) < 6 {
		t.Errorf("empty report should trip every check, got %v", p)
	}
	// Every guardrail class is required on its own: a report missing only
	// the degraded fallback fails on exactly that.
	noDegrade := *good
	noDegrade.Guardrails.DegradedFallbacks = 0
	if p := noDegrade.problems(); len(p) != 1 || !strings.Contains(p[0], "degraded") {
		t.Errorf("report without a degraded fallback: problems %v", p)
	}
}
