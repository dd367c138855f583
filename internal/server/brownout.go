// Staged brownout and load vitals: the server side of fleet-aware overload
// control. A periodic loop samples the node's scalar pressure (from its own
// limiters, shed rate and breaker, combined with the fleet aggregate the
// fleet layer supplies) and feeds it to the guard.Brownout ladder; the
// resulting stage gates progressively more work:
//
//	stage ≥ 1  hedging disabled (fleet layer), trace sampling dropped
//	stage ≥ 2  sweeps and atlas renders shed
//	stage ≥ 3  session builds shed; runs still admitted
//	stage ≥ 4  runs shed too — only health, metrics and fleet endpoints serve
//
// The current stage is published as rqp_brownout_stage, and Vitals() is the
// snapshot the fleet gossips on every heartbeat response.

package server

import (
	"fmt"
	"net/http"
	"runtime"
	"time"

	"repro/internal/guard"
)

// shedRateWindow is the minimum sampling window for the shed-rate
// derivation: two calls closer together than this reuse the last rate
// instead of dividing a tiny count by a tiny interval.
const shedRateWindow = 250 * time.Millisecond

// StartBrownout launches the periodic pressure-sampling loop. A no-op
// unless Config.Brownout is set (single-node servers stay at stage 0
// without a goroutine to show for it). Stop with Close.
func (s *Server) StartBrownout() {
	if s.brownout == nil || s.brownoutQ != nil {
		return
	}
	interval := s.cfg.BrownoutInterval
	if interval <= 0 {
		interval = time.Second
	}
	s.brownoutQ = make(chan struct{})
	s.brownoutWG.Add(1)
	go func() {
		defer s.brownoutWG.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.brownoutTick()
			case <-s.brownoutQ:
				return
			}
		}
	}()
}

// brownoutTick samples pressure once and advances the ladder. Exposed to
// tests (package-internal) for deterministic stage walking.
func (s *Server) brownoutTick() {
	p := s.Vitals().Pressure()
	s.hookMu.Lock()
	fleetFn, onStage := s.fleetPressure, s.onStage
	s.hookMu.Unlock()
	if fleetFn != nil {
		if fp := fleetFn(); fp > p {
			p = fp
		}
	}
	from := s.brownout.Stage()
	stage, changed := s.brownout.Observe(p)
	if changed && onStage != nil {
		onStage(from, stage)
	}
}

// Stage reports the current brownout stage; 0 when brownout is disabled.
func (s *Server) Stage() int { return s.brownout.Stage() }

// SetFleetPressure installs the fleet-wide pressure aggregate the brownout
// tick folds in (max with local pressure). The fleet layer calls this once
// at node construction, before StartBrownout.
func (s *Server) SetFleetPressure(fn func() float64) {
	s.hookMu.Lock()
	s.fleetPressure = fn
	s.hookMu.Unlock()
}

// OnBrownoutStage installs an observer fired on every stage transition
// (from the brownout loop's goroutine). The fleet layer uses it to record
// the transition into the membership timeline.
func (s *Server) OnBrownoutStage(fn func(from, to int)) {
	s.hookMu.Lock()
	s.onStage = fn
	s.hookMu.Unlock()
}

// Vitals snapshots the node's load signals — the payload gossiped to peers
// on every heartbeat response and served at /v1/fleet/vitals. The Node
// field is left empty; the fleet layer stamps its self address.
func (s *Server) Vitals() guard.Vitals {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return guard.Vitals{
		Stage:          s.Stage(),
		RunInflight:    s.runLimiter.Inflight(),
		RunLimit:       s.runLimiter.Limit(),
		BuildInflight:  s.buildLimiter.Inflight(),
		BuildLimit:     s.buildLimiter.Limit(),
		ShedRate:       s.shedRate(),
		BreakerState:   s.breaker.State(),
		HeapBytes:      ms.HeapAlloc,
		Goroutines:     runtime.NumGoroutine(),
		RetryAfterHint: s.retryAfterHint(),
	}
}

// retryAfterHint is the Retry-After (seconds) the node advertises for edge
// sheds performed on its behalf: the larger of retryAfterBase (the
// breaker's remaining cooldown, floor 1) and the brownout depth plus one
// (deeper stages take dwell ticks to unwind, so clients should stay away
// longer).
func (s *Server) retryAfterHint() int {
	return max(s.retryAfterBase(), s.Stage()+1)
}

// countShed accounts one overload rejection into both the labeled metric
// and the vitals shed counter.
func (s *Server) countShed(class, reason string) {
	s.metrics.shed.With(class, reason).Inc()
	s.shedTotal.Add(1)
}

// shedRate derives the recent shed throughput (rejections/second) from the
// cumulative counter over a sliding sample window. Calls within
// shedRateWindow of the last derivation reuse it, so heartbeat-cadence
// callers see a stable value and the division never runs on a degenerate
// interval.
func (s *Server) shedRate() float64 {
	s.shedMu.Lock()
	defer s.shedMu.Unlock()
	now := time.Now()
	if s.shedLastAt.IsZero() {
		s.shedLast = s.shedTotal.Load()
		s.shedLastAt = now
		return 0
	}
	if elapsed := now.Sub(s.shedLastAt); elapsed >= shedRateWindow {
		count := s.shedTotal.Load()
		s.shedRateV = float64(count-s.shedLast) / elapsed.Seconds()
		s.shedLast = count
		s.shedLastAt = now
	}
	return s.shedRateV
}

// shedBrownout rejects a request the current brownout stage refuses to
// serve: 503 (the node is deliberately degraded, not momentarily busy)
// with the overloaded envelope code and a jittered Retry-After derived
// from the stage depth.
func (s *Server) shedBrownout(w http.ResponseWriter, class string) {
	s.countShed(class, "brownout")
	s.setRetryAfter(w, s.retryAfterHint())
	s.writeError(w, http.StatusServiceUnavailable, codeOverloaded,
		fmt.Errorf("brownout stage %d: %s requests are shed until pressure recedes", s.Stage(), class))
}
