package qe

import (
	"context"
	"errors"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/apsp"
	"repro/internal/graph"
	"repro/internal/obs"
)

// valSource fills every row entry with a fixed value, optionally
// signalling row starts and blocking on a gate so tests can freeze a
// build mid-flight.
type valSource struct {
	n       int
	val     graph.Weight
	entered chan int32    // nil: don't signal
	gate    chan struct{} // nil: don't block
}

func (s *valSource) NumVertices() int { return s.n }

func (s *valSource) Row(src int32, out []graph.Weight) int64 {
	if s.entered != nil {
		s.entered <- src
	}
	if s.gate != nil {
		<-s.gate
	}
	for i := range out[:s.n] {
		out[i] = s.val
	}
	return int64(s.n)
}

// TestSwapSourceRacingBuildIsFullyOldOrFullyNew gates an in-flight row
// build across a SwapSource: the racing query gets the complete old row,
// and the next query builds and reads the complete new one.
func TestSwapSourceRacingBuildIsFullyOldOrFullyNew(t *testing.T) {
	reg := obs.NewRegistry()
	old := &valSource{n: 4, val: 1, entered: make(chan int32), gate: make(chan struct{})}
	e := New(old, Config{MaxInflight: 4, Reg: reg})
	ctx := context.Background()

	type res struct {
		d   graph.Weight
		err error
	}
	got := make(chan res, 1)
	go func() {
		d, err := e.Query(ctx, 0, 1)
		got <- res{d, err}
	}()
	<-old.entered // the build against the old source is now in flight

	e.SwapSource(&valSource{n: 4, val: 2})
	close(old.gate)

	r := <-got
	if r.err != nil || r.d != 1 {
		t.Fatalf("racing query: d=%v err=%v, want the fully-old value 1", r.d, r.err)
	}
	d, err := e.Query(ctx, 0, 1)
	if err != nil || d != 2 {
		t.Fatalf("post-swap query: d=%v err=%v, want the fully-new value 2", d, err)
	}
	if got := reg.Counter("qe.rows.built").Value(); got != 2 {
		t.Fatalf("builds = %d, want 2 (one per query)", got)
	}
}

// TestSwapSourceGrowsVertexRange swaps in a larger source: every later
// request is validated against and answered by it in full, the vertices
// it added included.
func TestSwapSourceGrowsVertexRange(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(&valSource{n: 3, val: 1}, Config{MaxInflight: 2, Reg: reg})
	ctx := context.Background()
	if d, err := e.Query(ctx, 0, 0); err != nil || d != 1 {
		t.Fatalf("d(0,0) = %v err=%v, want 1", d, err)
	}

	e.SwapSource(&valSource{n: 5, val: 2})
	if e.NumVertices() != 5 {
		t.Fatalf("NumVertices = %d, want 5", e.NumVertices())
	}
	for _, uv := range [][2]int32{{0, 4}, {3, 4}} {
		if d, err := e.Query(ctx, uv[0], uv[1]); err != nil || d != 2 {
			t.Fatalf("d(%d,%d) = %v err=%v, want 2", uv[0], uv[1], d, err)
		}
	}
	out, err := e.Batch(ctx, []int32{0, 3}, []int32{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range out {
		for _, d := range row {
			if d != 2 {
				t.Fatalf("batch = %v, want [[2 2] [2 2]]", out)
			}
		}
	}
	if _, err := e.Query(ctx, 0, 5); !errors.Is(err, ErrVertexRange) {
		t.Fatalf("d(0,5): err = %v, want ErrVertexRange", err)
	}
}

// TestBatchSwapRace runs batches while SwapSource flips the engine between
// an oracle and its successor under a delta that changes a weight and
// grows the vertex range. A batch reads its source once, so every matrix
// must equal, bit for bit, one oracle's QueryChecked in full — never rows
// of both. A batch naming the successor's new vertex is either
// ErrVertexRange (validated against the old oracle) or the successor's
// matrix.
func TestBatchSwapRace(t *testing.T) {
	old := pairOracle()
	n := int32(old.NumVertices())
	next, _, err := old.ApplyDelta(context.Background(), []apsp.Delta{
		{Kind: apsp.DeltaWeight, Edge: 0, W: old.G.Edge(0).W + 5},
		{Kind: apsp.DeltaInsert, U: 1, V: n, W: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	all := func(k int32) []int32 {
		vs := make([]int32, k)
		for i := range vs {
			vs[i] = int32(i)
		}
		return vs
	}
	matrix := func(o *apsp.Oracle, sources, targets []int32) []uint64 {
		var bits []uint64
		for _, u := range sources {
			for _, v := range targets {
				d, err := o.QueryChecked(u, v)
				if err != nil {
					t.Fatalf("QueryChecked(%d,%d): %v", u, v, err)
				}
				bits = append(bits, math.Float64bits(d))
			}
		}
		return bits
	}
	equal := func(out [][]graph.Weight, want []uint64) bool {
		k := 0
		for _, row := range out {
			for _, d := range row {
				if k == len(want) || math.Float64bits(d) != want[k] {
					return false
				}
				k++
			}
		}
		return k == len(want)
	}
	inSrc, inDst := all(n), all(n)
	grownSrc, grownDst := []int32{n, 0, 1, n}, all(n+1)
	wantOld, wantNew := matrix(old, inSrc, inDst), matrix(next, inSrc, inDst)
	wantGrown := matrix(next, grownSrc, grownDst)
	if slices.Equal(wantOld, wantNew) {
		t.Fatal("the delta changes no in-range distance: the race would pass unobserved")
	}

	e, _ := newTestEngine(old, Config{MaxInflight: 8, QueueDepth: 64})
	ctx := context.Background()
	stop, swapped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(swapped)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				e.SwapSource(next)
			} else {
				e.SwapSource(old)
			}
		}
	}()
	var batches sync.WaitGroup
	for g := 0; g < 4; g++ {
		batches.Add(1)
		go func(g int) {
			defer batches.Done()
			for i := 0; i < 500; i++ {
				if (i+g)%2 == 0 {
					out, err := e.Batch(ctx, inSrc, inDst)
					if err != nil {
						t.Errorf("in-range batch: %v", err)
						return
					}
					if !equal(out, wantOld) && !equal(out, wantNew) {
						t.Errorf("in-range batch %d matches neither oracle in full", i)
						return
					}
					continue
				}
				out, err := e.Batch(ctx, grownSrc, grownDst)
				if errors.Is(err, ErrVertexRange) {
					continue // validated against the old oracle
				}
				if err != nil || !equal(out, wantGrown) {
					t.Errorf("grown batch %d: err=%v, or not the successor's matrix", i, err)
					return
				}
			}
		}(g)
	}
	batches.Wait()
	close(stop)
	<-swapped
}
