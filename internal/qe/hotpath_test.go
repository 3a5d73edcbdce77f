package qe

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"repro/internal/graph"
)

// TestQueryRowZeroAllocs pins the rows-only Query: with its pooled
// scratch row warm, building the row and reading one entry allocates
// nothing. The engine runs without a deadline (context.WithTimeout
// allocates; callers wanting deadlines pay for them).
func TestQueryRowZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not meaningful under -race")
	}
	src := &stubSource{n: 128}
	e, reg := newTestEngine(src, Config{MaxInflight: 4})
	ctx := context.Background()
	if _, err := e.Query(ctx, 7, 0); err != nil { // warm the scratch pool
		t.Fatalf("warm: %v", err)
	}
	var v int32
	allocs := testing.AllocsPerRun(500, func() {
		d, err := e.Query(ctx, 7, v)
		if err != nil {
			t.Fatalf("query: %v", err)
		}
		if d != graph.Weight(7*1000+int(v)) {
			t.Fatalf("query(7,%d) = %v", v, d)
		}
		v = (v + 1) % 128
	})
	if allocs != 0 {
		t.Fatalf("rows-only Query allocates %v/op, want 0", allocs)
	}
	if got := reg.Counter("qe.rows.built").Value(); got != src.builds.Load() || got < 500 {
		t.Fatalf("qe.rows.built = %d, stub saw %d builds: every query builds its row", got, src.builds.Load())
	}
}

// TestBatchWarmAllocs pins the Batch bound: with the pooled scratch warm,
// Batch allocates only the result matrix it returns — the slice header
// array and the flat backing array, 2 allocations — because the dedup
// state and the row buffers are reused and rows are copied out in place.
// One worker keeps par.ParallelForCtx inline; with more, a batch also
// pays for the goroutines it fans out to.
func TestBatchWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not meaningful under -race")
	}
	src := &stubSource{n: 128}
	e, _ := newTestEngine(src, Config{MaxInflight: 1})
	ctx := context.Background()
	sources := []int32{3, 5, 3, 9, 5, 11}
	targets := []int32{0, 1, 64, 127}
	if _, err := e.Batch(ctx, sources, targets); err != nil { // warm the scratch pool
		t.Fatalf("warm: %v", err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		out, err := e.Batch(ctx, sources, targets)
		if err != nil {
			t.Fatalf("batch: %v", err)
		}
		if out[2][1] != 3001 || out[5][3] != 11127 {
			t.Fatalf("batch values wrong: %v", out)
		}
	})
	// The pool can miss under GC pressure, so allow a fractional average.
	if allocs > 2.5 {
		t.Fatalf("warm Batch allocates %v/op, want 2 (result matrix only)", allocs)
	}
}

// TestBatchPairCap covers the Batch size guard at the real 1<<20-pair
// cap: an over-cap request fails with ErrBatchTooLarge before any work
// and before its result matrix is allocated, and an at-cap request
// succeeds.
func TestBatchPairCap(t *testing.T) {
	src := &stubSource{n: 16}
	e, reg := newTestEngine(src, Config{MaxInflight: 2})
	ctx := context.Background()

	targets := make([]int32, 1024)
	for i := range targets {
		targets[i] = int32(i % src.n)
	}
	over := make([]int32, 1025) // 1025×1024 > 1<<20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := e.Batch(ctx, over, targets)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("over-cap batch: err = %v, want ErrBatchTooLarge", err)
	}
	if got := reg.Counter("qe.batch.pairs").Value(); got != 0 {
		t.Fatalf("rejected batch counted %d pairs, want 0", got)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Fatalf("rejected batch allocated %d bytes: the matrix was allocated before the cap check", alloc)
	}
	if out, err := e.Batch(ctx, over[:1024], targets); err != nil || len(out) != 1024 {
		t.Fatalf("at-cap 1024×1024 batch: %v", err)
	}
}
