// Package guard holds the serving layer's overload controls: bound
// concurrent work, shed the excess early, and stop hammering a failing
// dependency. This file has the AIMD concurrency limiter and the fixed-cap
// bulkhead; breaker.go the session-build circuit breaker; brownout.go the
// staged load-shedding ladder; vitals.go the per-node load vitals and
// pressure score those controls steer by. The run-time side of the paper's
// guarantees — cutting every budgeted execution off at its budget and
// checking learned selectivities against the ESS — is not here: the engine
// enforces it where it charges cost (internal/engine).
//
// The limiter and the bulkhead are nil-safe — a nil limiter admits
// everything — so the server can leave overload control disabled by simply
// not constructing them.
package guard

import (
	"math"
	"sync"
)

// AIMD is an additive-increase/multiplicative-decrease concurrency limiter,
// the TCP-congestion-control shape applied to request admission: every
// successful completion nudges the limit up by ~1/limit (one extra slot per
// "round trip" of the current window), every failure halves it. The limit
// converges to the concurrency the backend actually sustains without a
// static tuning knob.
type AIMD struct {
	mu       sync.Mutex
	limit    float64
	min, max float64
	inflight int
}

// NewAIMD returns a limiter starting at initial concurrency, bounded to
// [min, max]. Non-positive bounds are sanitized (min ≥ 1, max ≥ min), and
// the initial limit is clamped into the bounds.
func NewAIMD(initial, min, max int) *AIMD {
	lo := math.Max(1, float64(min))
	hi := math.Max(lo, float64(max))
	l := math.Min(hi, math.Max(lo, float64(initial)))
	return &AIMD{limit: l, min: lo, max: hi}
}

// TryAcquire admits the request if the in-flight count is below the current
// limit. A nil limiter admits everything.
func (l *AIMD) TryAcquire() bool {
	if l == nil {
		return true
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if float64(l.inflight) >= math.Floor(l.limit) {
		return false
	}
	l.inflight++
	return true
}

// Release returns the slot and feeds the outcome back into the limit:
// success grows it additively, failure shrinks it multiplicatively. Callers
// must pair every successful TryAcquire with exactly one Release.
func (l *AIMD) Release(ok bool) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.inflight > 0 {
		l.inflight--
	}
	if ok {
		l.limit = math.Min(l.max, l.limit+1/l.limit)
	} else {
		l.limit = math.Max(l.min, l.limit/2)
	}
}

// Cancel returns the slot without feeding any outcome into the limit — for
// admissions rolled back before the guarded work ran (e.g. a downstream
// bulkhead or breaker refused), where neither growth nor shrink is earned.
func (l *AIMD) Cancel() {
	if l == nil {
		return
	}
	l.mu.Lock()
	if l.inflight > 0 {
		l.inflight--
	}
	l.mu.Unlock()
}

// Limit reports the current (fractional) concurrency limit; 0 on a nil
// limiter.
func (l *AIMD) Limit() float64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.limit
}

// Inflight reports the current in-flight count; 0 on a nil limiter.
func (l *AIMD) Inflight() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inflight
}

// Bulkhead is a fixed-capacity admission gate scoped to one resource (one
// session): it isolates a noisy tenant so a burst against a single session
// cannot monopolize the shared run limiter. A nil bulkhead admits
// everything.
type Bulkhead struct {
	mu       sync.Mutex
	cap      int
	inflight int
}

// NewBulkhead returns a bulkhead admitting at most cap concurrent holders;
// non-positive cap returns nil (unlimited).
func NewBulkhead(cap int) *Bulkhead {
	if cap <= 0 {
		return nil
	}
	return &Bulkhead{cap: cap}
}

// TryAcquire admits if capacity remains.
func (b *Bulkhead) TryAcquire() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.inflight >= b.cap {
		return false
	}
	b.inflight++
	return true
}

// Release returns a slot.
func (b *Bulkhead) Release() {
	if b == nil {
		return
	}
	b.mu.Lock()
	if b.inflight > 0 {
		b.inflight--
	}
	b.mu.Unlock()
}

// Inflight reports the current holder count; 0 on a nil bulkhead.
func (b *Bulkhead) Inflight() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.inflight
}
