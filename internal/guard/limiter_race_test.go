package guard

import (
	"math"
	"sync"
	"testing"
)

// TestAIMDConcurrencyInvariants is a property-style race test: many
// goroutines hammer TryAcquire/Release/Cancel with mixed outcomes, and the
// limiter's core invariants must hold at every observation point — the
// in-flight count never goes negative (checked continuously by observer
// goroutines racing the workers), never exceeds the configured max, and the
// limit stays inside [min, max] no matter how the AIMD feedback interleaves.
// Run with -race; the mutex discipline is half of what's under test.
func TestAIMDConcurrencyInvariants(t *testing.T) {
	const (
		minLimit = 2
		maxLimit = 24
		workers  = 16
		rounds   = 2000
	)
	l := NewAIMD(8, minLimit, maxLimit)

	var violations sync.Map
	check := func() {
		if n := l.Inflight(); n < 0 {
			violations.Store("negative inflight", n)
		} else if n > maxLimit {
			violations.Store("inflight above max", n)
		}
		if lim := l.Limit(); lim < minLimit || lim > maxLimit {
			violations.Store("limit out of bounds", lim)
		}
	}

	done := make(chan struct{})
	var observers sync.WaitGroup
	for i := 0; i < 2; i++ {
		observers.Add(1)
		go func() {
			defer observers.Done()
			for {
				select {
				case <-done:
					return
				default:
					check()
				}
			}
		}()
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if !l.TryAcquire() {
					continue
				}
				check()
				// Deterministic mixed outcomes per (worker, round): success,
				// failure, and admissions rolled back before the work ran.
				switch (w + i) % 4 {
				case 0:
					l.Release(false)
				case 1:
					l.Cancel()
				default:
					l.Release(true)
				}
			}
		}(w)
	}
	wg.Wait()
	close(done)
	observers.Wait()

	violations.Range(func(k, v any) bool {
		t.Errorf("invariant violated: %v = %v", k, v)
		return true
	})
	if n := l.Inflight(); n != 0 {
		t.Fatalf("inflight %d after all workers released, want 0", n)
	}
	if lim := l.Limit(); lim < minLimit || lim > maxLimit {
		t.Fatalf("final limit %v outside [%d, %d]", lim, minLimit, maxLimit)
	}
	// The floor arithmetic must still admit work after the storm.
	if !l.TryAcquire() {
		t.Fatal("idle limiter refused admission after the storm")
	}
	l.Release(true)
}

// TestBulkheadConcurrencyInvariants hammers a fixed-cap bulkhead the same
// way: the holder count must never exceed cap nor go negative, and every
// admission must be releasable.
func TestBulkheadConcurrencyInvariants(t *testing.T) {
	const (
		capacity = 5
		workers  = 16
		rounds   = 2000
	)
	b := NewBulkhead(capacity)
	inflight := func() int {
		b.mu.Lock()
		defer b.mu.Unlock()
		return b.inflight
	}

	var violations sync.Map
	check := func() {
		if n := inflight(); n < 0 {
			violations.Store("negative inflight", n)
		} else if n > capacity {
			violations.Store("inflight above cap", n)
		}
	}

	done := make(chan struct{})
	var observers sync.WaitGroup
	observers.Add(1)
	go func() {
		defer observers.Done()
		for {
			select {
			case <-done:
				return
			default:
				check()
			}
		}
	}()

	var admitted, refused int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var a, r int64
			for i := 0; i < rounds; i++ {
				if b.TryAcquire() {
					a++
					check()
					b.Release()
				} else {
					r++
				}
			}
			mu.Lock()
			admitted += a
			refused += r
			mu.Unlock()
		}()
	}
	wg.Wait()
	close(done)
	observers.Wait()

	violations.Range(func(k, v any) bool {
		t.Errorf("invariant violated: %v = %v", k, v)
		return true
	})
	if n := inflight(); n != 0 {
		t.Fatalf("inflight %d after all workers released, want 0", n)
	}
	if admitted == 0 {
		t.Fatal("no admissions at all — the test exercised nothing")
	}
	if admitted+refused != workers*rounds {
		t.Fatalf("accounting: admitted %d + refused %d != %d", admitted, refused, workers*rounds)
	}
}

// TestAIMDLimitConvergesWithinBounds drives pure success and pure failure
// streams and asserts the asymptotes: growth saturates at max, collapse
// floors at min.
func TestAIMDLimitConvergesWithinBounds(t *testing.T) {
	l := NewAIMD(8, 2, 16)
	for i := 0; i < 1000; i++ {
		if l.TryAcquire() {
			l.Release(true)
		}
	}
	if lim := l.Limit(); math.Abs(lim-16) > 1e-9 {
		t.Fatalf("limit %v after sustained success, want 16", lim)
	}
	for i := 0; i < 100; i++ {
		if l.TryAcquire() {
			l.Release(false)
		}
	}
	if lim := l.Limit(); lim != 2 {
		t.Fatalf("limit %v after sustained failure, want floor 2", lim)
	}
}
