// Package par runs a loop body over an index range on a bounded set of
// worker goroutines.
package par

import (
	"context"
	"sync"
	"sync/atomic"
)

// Each calls fn(w, i) once for every i in [0, n), from max(1, min(workers,
// n)) workers that claim indices in turn off one shared counter. w, below
// that worker count, names the worker making the call, so fn may keep
// per-worker state indexed by it; fn must be safe for concurrent use across
// workers. Worker 0 runs on the calling goroutine, and Each returns once
// every worker is done. Workers stop claiming indices once ctx is done, so
// a canceled loop leaves some indices unvisited.
func Each(ctx context.Context, n, workers int, fn func(w, i int)) {
	workers = max(1, min(workers, n))
	var next atomic.Int64
	work := func(w int) {
		for ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(w, i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
}
