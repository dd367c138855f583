// Circuit breaker for the session-build dependency: consecutive build
// failures open the circuit, rejections are immediate (no queueing behind a
// failing dependency), and after a cooldown a single half-open probe decides
// whether to close again.

package guard

import (
	"sync"
	"time"
)

// Breaker states, exported as the values of the rqp_breaker_state gauge.
const (
	StateClosed   = 0
	StateOpen     = 1
	StateHalfOpen = 2
)

// Breaker is a consecutive-failure circuit breaker. The zero value is not
// useful; construct with NewBreaker. A nil breaker admits everything.
type Breaker struct {
	// Threshold is the number of consecutive failures that opens the
	// circuit.
	Threshold int
	// Cooldown is how long the circuit stays open before admitting one
	// half-open probe.
	Cooldown time.Duration

	// now replaces time.Now in tests.
	now func() time.Time

	mu       sync.Mutex
	state    int
	fails    int
	openedAt time.Time
	probing  bool
}

// NewBreaker returns a closed breaker; threshold < 1 is clamped to 1.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	if threshold < 1 {
		threshold = 1
	}
	return &Breaker{Threshold: threshold, Cooldown: cooldown, now: time.Now}
}

// Allow reports whether a request may proceed: always when closed, one
// probe per cooldown expiry when open. A nil breaker always allows.
func (b *Breaker) Allow() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case StateClosed:
		return true
	case StateOpen:
		if b.now().Sub(b.openedAt) >= b.Cooldown {
			b.state = StateHalfOpen
			b.probing = true
			return true
		}
		return false
	default: // half-open: exactly one probe at a time
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// Record feeds the outcome of an admitted request back: a half-open success
// closes the circuit, any failure at or past the threshold (re-)opens it.
func (b *Breaker) Record(ok bool) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if ok {
		b.state = StateClosed
		b.fails = 0
		b.probing = false
		return
	}
	b.fails++
	if b.state == StateHalfOpen || b.fails >= b.Threshold {
		b.state = StateOpen
		b.openedAt = b.now()
		b.probing = false
	}
}

// Forget releases an admitted request without recording an outcome, for
// requests that were admitted but never exercised the dependency (e.g.
// rejected for a duplicate ID after admission). A half-open probe slot is
// returned so the next request can probe instead of wedging the circuit.
func (b *Breaker) Forget() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
}

// RetryAfter reports how long until an open circuit admits its next probe —
// the honest Retry-After value for a breaker shed, as opposed to the full
// configured cooldown. Zero when the circuit is not open (or nil).
func (b *Breaker) RetryAfter() time.Duration {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != StateOpen {
		return 0
	}
	remaining := b.Cooldown - b.now().Sub(b.openedAt)
	if remaining < 0 {
		return 0
	}
	return remaining
}

// State reports the current state (StateClosed/StateOpen/StateHalfOpen);
// the half-open transition happens on the next Allow, not here. A nil
// breaker reports StateClosed.
func (b *Breaker) State() int {
	if b == nil {
		return StateClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
