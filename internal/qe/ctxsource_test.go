package qe

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
)

// flakySource is a CtxRowSource whose builds fail while fail is set —
// the shape of a fan-out source with a dead shard. Successful rows are
// row[src][v] = src*1000 + v, matching stubSource.
type flakySource struct {
	n      int
	fail   atomic.Bool
	builds atomic.Int64
}

func (s *flakySource) NumVertices() int { return s.n }

var errFlaky = errors.New("flaky: shard down")

func (s *flakySource) RowCtx(_ context.Context, src int32, out []graph.Weight) (int64, error) {
	s.builds.Add(1)
	if s.fail.Load() {
		return 0, errFlaky
	}
	for v := 0; v < s.n; v++ {
		out[v] = graph.Weight(int(src)*1000 + v)
	}
	return int64(s.n), nil
}

// Row is the legacy surface; the engine must prefer RowCtx and never
// call it.
func (s *flakySource) Row(int32, []graph.Weight) int64 {
	panic("flakySource.Row called: engine did not use RowCtx")
}

// TestCtxSourceErrorPropagates: a failing build surfaces the source's
// error from Query, and once the source recovers the next query builds
// and answers normally.
func TestCtxSourceErrorPropagates(t *testing.T) {
	src := &flakySource{n: 16}
	src.fail.Store(true)
	e, reg := newTestEngine(src, Config{})

	if _, err := e.Query(context.Background(), 1, 2); !errors.Is(err, errFlaky) {
		t.Fatalf("Query during outage: err=%v, want errFlaky", err)
	}
	if got := reg.Counter("qe.rows.build.errors").Value(); got != 1 {
		t.Fatalf("build.errors=%d, want 1", got)
	}

	src.fail.Store(false)
	d, err := e.Query(context.Background(), 1, 2)
	if err != nil {
		t.Fatalf("Query after recovery: %v", err)
	}
	if want := graph.Weight(1002); d != want {
		t.Fatalf("Query after recovery = %v, want %v", d, want)
	}
	if got := src.builds.Load(); got != 2 {
		t.Fatalf("builds=%d, want 2 (failure then rebuild)", got)
	}
}

// TestCtxSourceBatchError: one failed row build fails the whole batch
// with the source's error rather than returning an Inf-padded matrix.
func TestCtxSourceBatchError(t *testing.T) {
	src := &flakySource{n: 16}
	src.fail.Store(true)
	e, _ := newTestEngine(src, Config{})

	_, err := e.Batch(context.Background(), []int32{0, 1, 2}, []int32{3, 4})
	if !errors.Is(err, errFlaky) {
		t.Fatalf("Batch during outage: err=%v, want errFlaky", err)
	}

	src.fail.Store(false)
	got, err := e.Batch(context.Background(), []int32{0, 1, 2}, []int32{3, 4})
	if err != nil {
		t.Fatalf("Batch after recovery: %v", err)
	}
	for i, u := range []int32{0, 1, 2} {
		for j, v := range []int32{3, 4} {
			if want := graph.Weight(int(u)*1000 + int(v)); got[i][j] != want {
				t.Fatalf("Batch[%d][%d] = %v, want %v", i, j, got[i][j], want)
			}
		}
	}
}
