package par

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

func TestParallelForCtxVisitsAll(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		const n = 500
		var visited [n]int32
		err := ParallelForCtx(context.Background(), workers, n, func(_, i int) {
			atomic.AddInt32(&visited[i], 1)
		})
		if err != nil {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		for i, c := range visited {
			if c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestParallelForCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 8} {
		var calls int64
		err := ParallelForCtx(ctx, workers, 1000, func(_, _ int) {
			atomic.AddInt64(&calls, 1)
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if calls != 0 {
			t.Fatalf("workers=%d: fn ran %d times on a cancelled context", workers, calls)
		}
	}
}

func TestParallelForCtxMidFlightCancel(t *testing.T) {
	for _, workers := range []int{1, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		const n = 1 << 20
		var calls int64
		err := ParallelForCtx(ctx, workers, n, func(_, _ int) {
			if atomic.AddInt64(&calls, 1) == 10 {
				cancel()
			}
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// Workers stop claiming after the cancel; at most the in-flight
		// items finish, nowhere near the full range.
		if calls >= n/2 {
			t.Fatalf("workers=%d: %d of %d items ran after cancellation", workers, calls, n)
		}
	}
}

func TestParallelForCtxZeroItems(t *testing.T) {
	called := false
	if err := ParallelForCtx(context.Background(), 4, 0, func(_, _ int) { called = true }); err != nil {
		t.Fatalf("n=0: err = %v", err)
	}
	if called {
		t.Fatal("fn called for an empty range")
	}
}

func TestParallelFor(t *testing.T) {
	for _, workers := range []int{1, 2, 7} {
		var sum int64
		ParallelFor(workers, 1000, func(w, i int) {
			atomic.AddInt64(&sum, int64(i))
		})
		if sum != 999*1000/2 {
			t.Fatalf("workers=%d: sum %d", workers, sum)
		}
	}
	// n smaller than workers
	count := int64(0)
	ParallelFor(16, 3, func(w, i int) { atomic.AddInt64(&count, 1) })
	if count != 3 {
		t.Fatalf("count %d", count)
	}
}
