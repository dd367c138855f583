package optimizer

import (
	"math"
	"sync"

	"repro/internal/cost"
	"repro/internal/plan"
)

// memoLimit bounds Shared's result cache. Sessions optimize at a handful of
// recurring locations (the statistics estimate, run truths, sweep oracle
// denominators); a few thousand entries cover realistic workloads while
// keeping the worst case bounded.
const memoLimit = 4096

// sharedResult is one memoized Optimize outcome.
type sharedResult struct {
	p *plan.Plan
	c float64
}

// Shared wraps an Optimizer for concurrent use with a bounded memo of
// Optimize results keyed by exact location. The underlying DP scratch
// tables are reused across calls and guarded by a mutex, so a Session can
// hold one Shared for its whole lifetime instead of rebuilding an optimizer
// per call; repeated optimizations at the same location (the estimate
// location, sweep denominators) are answered from the memo without taking
// the optimizer lock. Plans are immutable after construction, so returning
// a memoized *plan.Plan to concurrent callers is safe.
type Shared struct {
	mu  sync.Mutex
	opt *Optimizer

	memoMu sync.RWMutex
	memo   map[string]sharedResult
}

// NewShared builds a concurrent memoized optimizer for the model's query.
func NewShared(m *cost.Model) (*Shared, error) {
	o, err := New(m)
	if err != nil {
		return nil, err
	}
	return &Shared{opt: o, memo: make(map[string]sharedResult)}, nil
}

// Optimize returns the optimal plan and cost at the location, consulting
// the memo first. Safe for concurrent use.
func (s *Shared) Optimize(at cost.Location) (*plan.Plan, float64) {
	key := locKey(at)
	s.memoMu.RLock()
	r, ok := s.memo[key]
	s.memoMu.RUnlock()
	if ok {
		return r.p, r.c
	}
	s.mu.Lock()
	p, c := s.opt.Optimize(at)
	s.mu.Unlock()
	s.memoMu.Lock()
	if len(s.memo) >= memoLimit {
		// Wholesale reset: simpler than LRU bookkeeping, and the hot keys
		// (estimate location, active truths) repopulate within a call each.
		s.memo = make(map[string]sharedResult)
	}
	s.memo[key] = sharedResult{p: p, c: c}
	s.memoMu.Unlock()
	return p, c
}

// locKey renders a location's exact float bits as a map key.
func locKey(at cost.Location) string {
	b := make([]byte, 0, 8*len(at))
	for _, v := range at {
		u := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			b = append(b, byte(u>>(8*i)))
		}
	}
	return string(b)
}
