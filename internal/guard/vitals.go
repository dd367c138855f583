// Load vitals: the per-node health snapshot gossiped across the fleet on
// heartbeat responses, and the scalar pressure score both the edge-shedding
// proxy and the brownout controller steer by. The struct is the wire format
// (JSON on /v1/fleet/health and /v1/fleet/vitals), so fields are stable.

package guard

import (
	"hash/fnv"
	"math"
	"time"
)

// Vitals is one node's load snapshot. Zero values mean "unknown/disabled"
// (a limiter that isn't configured reports limit 0, which the pressure
// score skips rather than reading as saturation).
type Vitals struct {
	// Node is the advertising node's self address ("" single-node).
	Node string `json:"node,omitempty"`
	// Stage is the node's current brownout stage (0 = normal).
	Stage int `json:"stage"`

	// Per-class admission state: in-flight count and the AIMD limiter's
	// current (fractional) ceiling. Limit 0 means the class is unlimited.
	RunInflight   int     `json:"runInflight"`
	RunLimit      float64 `json:"runLimit"`
	BuildInflight int     `json:"buildInflight"`
	BuildLimit    float64 `json:"buildLimit"`

	// ShedRate is the node's recent shed throughput in requests/second
	// (overload rejections per second over the last vitals window).
	ShedRate float64 `json:"shedRate"`
	// BreakerState is the session-build breaker state (0 closed, 1 open,
	// 2 half-open).
	BreakerState int `json:"breakerState"`

	// Process resource signals, reported for operators; they do not feed
	// the pressure score (a big heap is not saturation).
	HeapBytes  uint64 `json:"heapBytes"`
	Goroutines int    `json:"goroutines"`

	// RetryAfterHint is the Retry-After (seconds) the node advertises for
	// edge sheds performed on its behalf — derived from its own limiter,
	// breaker and eviction state, so a peer rejecting at the edge quotes
	// the same backoff the owner itself would have.
	RetryAfterHint int `json:"retryAfterHint,omitempty"`
}

// shedRateScale is the shed throughput (req/s) that counts as pressure 1.0
// on its own: a node rejecting this many requests per second is saturated
// regardless of what its inflight gauges say at sample time.
const shedRateScale = 10.0

// breakerOpenPressure is the pressure floor while the build breaker is
// open: the node's build dependency is failing, so new work routed at it
// mostly burns retries.
const breakerOpenPressure = 0.8

// Pressure collapses the vitals into one scalar in [0, 1]: the max of the
// per-class utilizations (inflight over current AIMD limit), the normalized
// shed rate, and a floor while the breaker is open. Max, not mean — one
// saturated dimension is enough to make routing more work at the node a
// bad idea.
func (v Vitals) Pressure() float64 {
	p := 0.0
	if v.RunLimit > 0 {
		p = math.Max(p, clamp01(float64(v.RunInflight)/v.RunLimit))
	}
	if v.BuildLimit > 0 {
		p = math.Max(p, clamp01(float64(v.BuildInflight)/v.BuildLimit))
	}
	p = math.Max(p, clamp01(v.ShedRate/shedRateScale))
	if v.BreakerState == StateOpen {
		p = math.Max(p, breakerOpenPressure)
	}
	return p
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// RetryAfterSeconds converts a wait into a Retry-After base in whole
// seconds: rounded up, so the header never undercuts the wait it reports
// (an open breaker with 1.9s of cooldown left advertises 2), floor 1.
func RetryAfterSeconds(d time.Duration) int {
	if s := int((d + time.Second - 1) / time.Second); s > 1 {
		return s
	}
	return 1
}

// JitterRetryAfter spreads a base Retry-After (seconds) deterministically
// per request, so a burst of synchronized clients shed in the same instant
// does not come back in the same instant. The seed is the request's trace
// identity (X-Request-ID): the same request always sees the same value
// (testable), different requests fan out over [base, base+spread). The
// spread grows with the base — ±0 on nothing, a few seconds on short waits,
// proportionally wider on breaker cooldowns — and the result never drops
// below the base, which remains the honest "capacity plausibly frees up"
// estimate.
func JitterRetryAfter(seed string, base int) int {
	if base < 1 {
		base = 1
	}
	spread := base/2 + 3
	h := fnv.New32a()
	_, _ = h.Write([]byte(seed))
	return base + int(h.Sum32()%uint32(spread))
}
