package qe

import (
	"context"
	"errors"
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

// TestBatchPairCap covers the Batch size guard: an over-cap request fails
// with ErrBatchTooLarge before any work, an at-cap request succeeds, and
// a negative cap disables the guard.
func TestBatchPairCap(t *testing.T) {
	src := &stubSource{n: 16}
	e, reg := newTestEngine(src, Config{MaxInflight: 2, MaxBatchPairs: 12})
	ctx := context.Background()

	over := make([]int32, 5) // 5×3 = 15 > 12
	if _, err := e.Batch(ctx, over, []int32{0, 1, 2}); !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("over-cap batch: err = %v, want ErrBatchTooLarge", err)
	}
	if got := reg.Counter("qe.batch.pairs").Value(); got != 0 {
		t.Fatalf("rejected batch counted %d pairs, want 0", got)
	}
	if out, err := e.Batch(ctx, []int32{0, 1, 2, 3}, []int32{4, 5, 6}); err != nil || len(out) != 4 {
		t.Fatalf("at-cap 4×3 batch: %v", err)
	}

	uncapped, _ := newTestEngine(src, Config{MaxInflight: 2, MaxBatchPairs: -1})
	big := make([]int32, 16)
	if _, err := uncapped.Batch(ctx, big, big); err != nil {
		t.Fatalf("uncapped batch: %v", err)
	}

	defaulted, _ := newTestEngine(src, Config{MaxInflight: 2})
	if defaulted.maxPairs != DefaultMaxBatchPairs {
		t.Fatalf("zero MaxBatchPairs resolved to %d, want %d", defaulted.maxPairs, DefaultMaxBatchPairs)
	}
}
