package guard

import (
	"testing"
	"time"
)

func TestAIMDGrowsAndShrinks(t *testing.T) {
	l := NewAIMD(2, 1, 8)
	if !l.TryAcquire() || !l.TryAcquire() {
		t.Fatal("limiter must admit up to its initial limit")
	}
	if l.TryAcquire() {
		t.Fatal("limiter admitted past its limit")
	}
	l.Release(true)
	l.Release(true)
	if l.Limit() <= 2 {
		t.Fatalf("limit = %g, want additive growth past 2", l.Limit())
	}
	for i := 0; i < 10; i++ {
		if l.TryAcquire() {
			l.Release(false)
		}
	}
	if l.Limit() != 1 {
		t.Fatalf("limit = %g, want multiplicative decrease to floor 1", l.Limit())
	}
	for i := 0; i < 100; i++ {
		if l.TryAcquire() {
			l.Release(true)
		}
	}
	if l.Limit() > 8 {
		t.Fatalf("limit = %g, want capped at 8", l.Limit())
	}
	if l.Inflight() != 0 {
		t.Fatalf("inflight = %d, want 0 after paired releases", l.Inflight())
	}
}

func TestAIMDNilSafe(t *testing.T) {
	var l *AIMD
	if !l.TryAcquire() {
		t.Fatal("nil limiter must admit")
	}
	l.Release(true)
	if l.Limit() != 0 || l.Inflight() != 0 {
		t.Fatal("nil limiter must report zeros")
	}
}

func TestBulkhead(t *testing.T) {
	b := NewBulkhead(2)
	if !b.TryAcquire() || !b.TryAcquire() {
		t.Fatal("bulkhead must admit up to cap")
	}
	if b.TryAcquire() {
		t.Fatal("bulkhead admitted past cap")
	}
	b.Release()
	if !b.TryAcquire() {
		t.Fatal("released slot must be reusable")
	}
	if nb := NewBulkhead(0); nb != nil {
		t.Fatal("cap 0 must mean unlimited (nil)")
	}
	var nilB *Bulkhead
	if !nilB.TryAcquire() {
		t.Fatal("nil bulkhead must admit")
	}
	nilB.Release()
}

func TestBreakerLifecycle(t *testing.T) {
	clock := time.Unix(0, 0)
	b := NewBreaker(2, time.Minute)
	b.now = func() time.Time { return clock }

	if !b.Allow() || b.State() != StateClosed {
		t.Fatal("fresh breaker must be closed")
	}
	b.Record(false)
	if b.State() != StateClosed {
		t.Fatal("one failure under threshold must not open")
	}
	b.Record(false)
	if b.State() != StateOpen {
		t.Fatal("threshold failures must open the breaker")
	}
	if b.Allow() {
		t.Fatal("open breaker must reject before cooldown")
	}
	clock = clock.Add(2 * time.Minute)
	if !b.Allow() {
		t.Fatal("expired cooldown must admit the half-open probe")
	}
	if b.State() != StateHalfOpen {
		t.Fatalf("state = %d, want half-open", b.State())
	}
	if b.Allow() {
		t.Fatal("only one probe may be in flight")
	}
	b.Record(false)
	if b.State() != StateOpen {
		t.Fatal("failed probe must re-open")
	}
	clock = clock.Add(2 * time.Minute)
	if !b.Allow() {
		t.Fatal("second probe after re-open")
	}
	b.Record(true)
	if b.State() != StateClosed || !b.Allow() {
		t.Fatal("successful probe must close the breaker")
	}
}

func TestBreakerNilSafe(t *testing.T) {
	var b *Breaker
	if !b.Allow() || b.State() != StateClosed {
		t.Fatal("nil breaker must admit and report closed")
	}
	b.Record(false)
	b.Forget()
	if b.RetryAfter() != 0 {
		t.Fatal("nil breaker must report zero RetryAfter")
	}
}

func TestBreakerRetryAfterReportsRemainingCooldown(t *testing.T) {
	clock := time.Unix(0, 0)
	b := NewBreaker(1, time.Minute)
	b.now = func() time.Time { return clock }

	if b.RetryAfter() != 0 {
		t.Fatal("closed breaker must report zero RetryAfter")
	}
	b.Record(false) // opens
	if got := b.RetryAfter(); got != time.Minute {
		t.Fatalf("freshly opened: RetryAfter = %v, want the full cooldown", got)
	}
	// The advertised wait shrinks as the cooldown elapses — the honest
	// Retry-After, not a constant.
	clock = clock.Add(45 * time.Second)
	if got := b.RetryAfter(); got != 15*time.Second {
		t.Fatalf("45s in: RetryAfter = %v, want 15s", got)
	}
	clock = clock.Add(time.Minute)
	if got := b.RetryAfter(); got != 0 {
		t.Fatalf("past cooldown: RetryAfter = %v, want 0 (probe due)", got)
	}
	if !b.Allow() || b.State() != StateHalfOpen {
		t.Fatal("cooldown expiry must admit the probe")
	}
	if got := b.RetryAfter(); got != 0 {
		t.Fatalf("half-open: RetryAfter = %v, want 0", got)
	}
}

func TestBreakerForgetReleasesProbeSlot(t *testing.T) {
	clock := time.Unix(0, 0)
	b := NewBreaker(1, time.Minute)
	b.now = func() time.Time { return clock }

	b.Record(false)
	clock = clock.Add(2 * time.Minute)
	if !b.Allow() {
		t.Fatal("probe must be admitted after cooldown")
	}
	if b.Allow() {
		t.Fatal("second concurrent probe must be rejected")
	}
	// The admitted request never exercised the dependency (e.g. it was
	// rejected for a duplicate ID): Forget must return the probe slot
	// without recording a verdict, so the circuit neither closes nor wedges.
	b.Forget()
	if b.State() != StateHalfOpen {
		t.Fatalf("state after Forget = %d, want half-open", b.State())
	}
	if !b.Allow() {
		t.Fatal("Forget must release the probe slot for the next request")
	}
	b.Record(true)
	if b.State() != StateClosed {
		t.Fatal("successful probe after Forget must close the circuit")
	}
}
