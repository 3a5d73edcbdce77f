package registry

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/apsp"
	"repro/internal/graph"
)

// TestChurnUnderRace is the -race stress for the whole lifecycle: more
// graphs than capacity, hammered by concurrent Acquire/Query/Batch/
// Release workers while a mutator applies deltas, so hydration,
// eviction of held entries, and source swaps all interleave.
// Correctness bar: no worker ever observes an error.
func TestChurnUnderRace(t *testing.T) {
	if testing.Short() {
		t.Skip("churn stress skipped in -short")
	}
	const (
		graphs  = 6
		workers = 8
		iters   = 120
	)
	dir := t.TempDir()
	names := make([]string, graphs)
	for i := range names {
		names[i] = fmt.Sprintf("g%d", i)
		writeSnap(t, dir, names[i], testGraph(uint64(100+i)))
	}
	r, _ := openTest(t, dir, 2) // far below graphs: constant eviction pressure
	ctx := context.Background()

	var wg sync.WaitGroup
	fail := make(chan error, workers+1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				name := names[(w+i)%graphs]
				e, err := r.Acquire(ctx, name)
				if err != nil {
					fail <- fmt.Errorf("worker %d acquire %s: %w", w, name, err)
					return
				}
				if i%3 == 0 {
					_, err = e.Engine().Batch(ctx, []int32{0, 1}, []int32{1, 2})
				} else {
					_, err = e.Engine().Query(ctx, 0, int32(1+i%3))
				}
				if err != nil {
					fail <- fmt.Errorf("worker %d %s iter %d: %w", w, name, i, err)
					e.Release()
					return
				}
				e.Release()
			}
		}(w)
	}
	// Mutator: applies weight deltas to one graph while it churns.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/4; i++ {
			e, err := r.Acquire(ctx, names[0])
			if err != nil {
				fail <- fmt.Errorf("mutator acquire: %w", err)
				return
			}
			_, _, err = e.Apply(ctx, []apsp.Delta{
				{Kind: apsp.DeltaWeight, Edge: 0, W: 1 + graph.Weight(i%3)},
			}, nil)
			if err != nil {
				fail <- fmt.Errorf("mutator delta %d: %w", i, err)
				e.Release()
				return
			}
			e.Release()
		}
	}()
	wg.Wait()
	close(fail)
	for err := range fail {
		t.Error(err)
	}
}
