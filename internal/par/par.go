// Package par is the worker pool every production fan-out shares: oracle
// builds, row batches, centrality sources and the MCB phases all run their
// independent work units through ParallelForCtx.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers returns a sensible worker count: GOMAXPROCS.
func Workers() int { return runtime.GOMAXPROCS(0) }

// ParallelFor executes fn(i) for i in [0,n) across the given number of
// workers using a dynamic counter (small grain, good balance for skewed
// per-iteration work like per-source Dijkstra).
func ParallelFor(workers, n int, fn func(worker, i int)) {
	ParallelForCtx(context.Background(), workers, n, fn)
}

// ParallelForCtx is ParallelFor with cooperative cancellation: no new index
// is claimed once ctx is done, in-flight iterations finish, and the context
// error (if any) is returned. Iterations that never ran leave their outputs
// untouched, so callers must treat a non-nil error as "results invalid".
// With a background context it behaves exactly like ParallelFor and returns
// nil, so the cancellation check costs one channel poll per claimed index.
func ParallelForCtx(ctx context.Context, workers, n int, fn func(worker, i int)) error {
	done := ctx.Done()
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
			fn(0, i)
		}
		return nil
	}
	if workers > n {
		workers = n
	}
	var next int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				fn(worker, i)
			}
		}(w)
	}
	wg.Wait()
	return ctx.Err()
}
