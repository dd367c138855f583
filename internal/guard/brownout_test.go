package guard

import (
	"testing"
	"time"
)

func TestPressureUtilizationTerm(t *testing.T) {
	v := Vitals{RunInflight: 32, RunLimit: 64}
	if got := v.Pressure(); got != 0.5 {
		t.Fatalf("half-utilized run class: pressure %v, want 0.5", got)
	}
	v = Vitals{RunInflight: 64, RunLimit: 64, BuildInflight: 0, BuildLimit: 4}
	if got := v.Pressure(); got != 1 {
		t.Fatalf("saturated run class: pressure %v, want 1 (max, not mean)", got)
	}
	// Overshoot (inflight can briefly exceed a shrinking AIMD limit) clamps.
	v = Vitals{RunInflight: 100, RunLimit: 10}
	if got := v.Pressure(); got != 1 {
		t.Fatalf("overshoot: pressure %v, want clamped 1", got)
	}
}

func TestPressureUnlimitedClassesScoreZero(t *testing.T) {
	// Limit 0 means "unlimited", not "saturated at any inflight".
	v := Vitals{RunInflight: 500, RunLimit: 0, BuildInflight: 7, BuildLimit: 0}
	if got := v.Pressure(); got != 0 {
		t.Fatalf("unlimited classes: pressure %v, want 0", got)
	}
}

func TestPressureShedRateAndBreakerTerms(t *testing.T) {
	if got := (Vitals{ShedRate: shedRateScale}).Pressure(); got != 1 {
		t.Fatalf("shed rate at scale: pressure %v, want 1", got)
	}
	if got := (Vitals{ShedRate: shedRateScale / 2}).Pressure(); got != 0.5 {
		t.Fatalf("shed rate at half scale: pressure %v, want 0.5", got)
	}
	if got := (Vitals{BreakerState: StateOpen}).Pressure(); got != breakerOpenPressure {
		t.Fatalf("open breaker: pressure %v, want %v", got, breakerOpenPressure)
	}
	if got := (Vitals{BreakerState: StateHalfOpen}).Pressure(); got != 0 {
		t.Fatalf("half-open breaker alone: pressure %v, want 0", got)
	}
}

func TestBrownoutAscendsOneStagePerTick(t *testing.T) {
	b := NewBrownout(BrownoutConfig{})
	// A pressure spike past every threshold must walk the ladder, not jump.
	for want := 1; want <= BrownoutStages; want++ {
		stage, changed := b.Observe(1.0)
		if stage != want || !changed {
			t.Fatalf("tick %d: stage %d changed=%v, want %d true", want, stage, changed, want)
		}
	}
	// At the top the stage holds without reporting change.
	if stage, changed := b.Observe(1.0); stage != BrownoutStages || changed {
		t.Fatalf("holding at top: stage %d changed=%v", stage, changed)
	}
}

func TestBrownoutDescendsWithDwellHysteresis(t *testing.T) {
	b := NewBrownout(BrownoutConfig{DwellTicks: 3})
	b.Observe(0.6) // → stage 1 (enter[0]=0.5)

	// Inside the hysteresis band (below enter, above enter-margin): hold.
	for i := 0; i < 10; i++ {
		if stage, _ := b.Observe(0.45); stage != 1 {
			t.Fatalf("band tick %d: stage %d, want 1 (0.45 ≥ exit 0.4)", i, stage)
		}
	}
	// Below the exit threshold but not for DwellTicks yet: still hold.
	for i := 0; i < 2; i++ {
		if stage, _ := b.Observe(0.1); stage != 1 {
			t.Fatalf("dwell tick %d: stage %d, want 1", i, stage)
		}
	}
	// Third consecutive calm tick steps down.
	if stage, changed := b.Observe(0.1); stage != 0 || !changed {
		t.Fatalf("after dwell: stage %d changed=%v, want 0 true", stage, changed)
	}
}

func TestBrownoutCalmCounterResetsOnPressureBlip(t *testing.T) {
	b := NewBrownout(BrownoutConfig{DwellTicks: 3})
	b.Observe(0.6)
	b.Observe(0.1)
	b.Observe(0.1)
	b.Observe(0.45) // blip back into the band: calm streak resets
	b.Observe(0.1)
	b.Observe(0.1)
	if stage := b.Stage(); stage != 1 {
		t.Fatalf("stage %d after interrupted dwell, want 1", stage)
	}
	if stage, _ := b.Observe(0.1); stage != 0 {
		t.Fatalf("stage %d after full dwell, want 0", stage)
	}
}

func TestBrownoutDescendsOneStageAtATime(t *testing.T) {
	b := NewBrownout(BrownoutConfig{DwellTicks: 1})
	for i := 0; i < BrownoutStages; i++ {
		b.Observe(1.0)
	}
	// Pressure collapses to zero: even with DwellTicks 1 the controller
	// steps 4→3→2→1→0, one stage per tick.
	for want := BrownoutStages - 1; want >= 0; want-- {
		if stage, _ := b.Observe(0); stage != want {
			t.Fatalf("descent: stage %d, want %d", b.Stage(), want)
		}
	}
}

func TestBrownoutNilIsStageZero(t *testing.T) {
	var b *Brownout
	if stage, changed := b.Observe(1.0); stage != 0 || changed {
		t.Fatalf("nil controller: Observe → %d %v", stage, changed)
	}
	if b.Stage() != 0 {
		t.Fatal("nil controller: Stage != 0")
	}
}

func TestJitterRetryAfterDeterministicAndBounded(t *testing.T) {
	const base = 10
	spread := base/2 + 3
	seen := map[int]bool{}
	for _, seed := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		v := JitterRetryAfter(seed, base)
		if v != JitterRetryAfter(seed, base) {
			t.Fatalf("seed %q: jitter not deterministic", seed)
		}
		if v < base || v >= base+spread {
			t.Fatalf("seed %q: %d outside [%d, %d)", seed, v, base, base+spread)
		}
		seen[v] = true
	}
	if len(seen) < 2 {
		t.Fatalf("8 seeds produced %d distinct values; jitter is not spreading", len(seen))
	}
}

func TestJitterRetryAfterFloorsBase(t *testing.T) {
	if v := JitterRetryAfter("x", 0); v < 1 {
		t.Fatalf("base 0: %d, want ≥ 1", v)
	}
	if v := JitterRetryAfter("x", -5); v < 1 {
		t.Fatalf("negative base: %d, want ≥ 1", v)
	}
}

func TestRetryAfterSecondsRoundsUp(t *testing.T) {
	for _, c := range []struct {
		d    time.Duration
		want int
	}{{1500 * time.Millisecond, 2}, {0, 1}, {3 * time.Second, 3}, {time.Nanosecond, 1}, {-time.Second, 1}} {
		if got := RetryAfterSeconds(c.d); got != c.want {
			t.Errorf("RetryAfterSeconds(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestBreakerRetryAfterVitalsHintShape(t *testing.T) {
	// The RetryAfterHint pipeline: an open breaker's remaining cooldown is
	// what an owner advertises; sanity-check the plumbing pieces agree.
	b := NewBreaker(1, 10*time.Second)
	b.Record(false)
	if b.State() != StateOpen {
		t.Fatal("breaker should be open")
	}
	if ra := b.RetryAfter(); ra <= 0 || ra > 10*time.Second {
		t.Fatalf("RetryAfter %v outside (0, 10s]", ra)
	}
}
