package par

import (
	"context"
	"sync/atomic"
	"testing"
)

func TestEachRunsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000} {
		for _, workers := range []int{-1, 0, 1, 2, 3, 64} {
			runs := make([]atomic.Int32, n)
			limit := max(1, min(workers, n))
			var bad atomic.Bool
			Each(context.Background(), n, workers, func(w, i int) {
				if w < 0 || w >= limit {
					bad.Store(true)
				}
				runs[i].Add(1)
			})
			for i := range runs {
				if got := runs[i].Load(); got != 1 {
					t.Errorf("n=%d workers=%d: index %d ran %d times, want 1", n, workers, i, got)
				}
			}
			if bad.Load() {
				t.Errorf("n=%d workers=%d: a worker index fell outside [0, %d)", n, workers, limit)
			}
		}
	}
}

func TestEachCanceledRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var runs atomic.Int32
	Each(ctx, 100, 4, func(w, i int) { runs.Add(1) })
	if n := runs.Load(); n != 0 {
		t.Errorf("canceled context ran %d iterations, want 0", n)
	}
}
