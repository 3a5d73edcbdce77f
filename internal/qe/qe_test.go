package qe

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
)

// stubSource is a deterministic RowSource: row[src][v] = src*1000 + v,
// with a build counter and an optional gate that blocks builds until
// released — the hooks the admission and deadline tests need.
type stubSource struct {
	n      int
	builds atomic.Int64
	gate   chan struct{} // nil: never block
	began  chan int32    // nil: don't announce; else receives src per build
}

func (s *stubSource) NumVertices() int { return s.n }

func (s *stubSource) Row(src int32, out []graph.Weight) int64 {
	s.builds.Add(1)
	if s.began != nil {
		s.began <- src
	}
	if s.gate != nil {
		<-s.gate
	}
	for v := 0; v < s.n; v++ {
		out[v] = graph.Weight(int(src)*1000 + v)
	}
	return int64(s.n)
}

func newTestEngine(src RowSource, cfg Config) (*Engine, *obs.Registry) {
	reg := obs.NewRegistry()
	cfg.Reg = reg
	return New(src, cfg), reg
}

// TestOverload: with one slot and an empty queue, a second request is
// shed immediately with ErrOverloaded while the first blocks in a build.
func TestOverload(t *testing.T) {
	src := &stubSource{n: 4, gate: make(chan struct{}), began: make(chan int32, 1)}
	e, reg := newTestEngine(src, Config{MaxInflight: 1, QueueDepth: 0})

	done := make(chan error, 1)
	go func() {
		_, err := e.Query(context.Background(), 0, 0)
		done <- err
	}()
	<-src.began // first request holds the only slot inside its build

	_, err := e.Query(context.Background(), 1, 0)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second request: err = %v, want ErrOverloaded", err)
	}
	if reg.Counter("qe.shed").Value() != 1 {
		t.Fatalf("shed counter = %d, want 1", reg.Counter("qe.shed").Value())
	}
	// Batches are admitted through the same gate.
	if _, err := e.Batch(context.Background(), []int32{0}, []int32{1}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("batch during overload: err = %v, want ErrOverloaded", err)
	}

	close(src.gate)
	if err := <-done; err != nil {
		t.Fatalf("first request: %v", err)
	}
	// With the slot free again, requests are admitted.
	if _, err := e.Query(context.Background(), 1, 0); err != nil {
		t.Fatalf("after release: %v", err)
	}
}

// TestAdmissionDeadline: a queued request gives up with a context error
// when its deadline passes, and the expired counter records it.
func TestAdmissionDeadline(t *testing.T) {
	src := &stubSource{n: 4, gate: make(chan struct{}), began: make(chan int32, 1)}
	e, reg := newTestEngine(src, Config{MaxInflight: 1, QueueDepth: 4, Deadline: 20 * time.Millisecond})

	done := make(chan error, 1)
	go func() {
		_, err := e.Query(context.Background(), 0, 0)
		done <- err
	}()
	<-src.began

	_, err := e.Query(context.Background(), 1, 0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued request: err = %v, want DeadlineExceeded", err)
	}
	if reg.Counter("qe.queue.expired").Value() != 1 {
		t.Fatalf("expired counter = %d, want 1", reg.Counter("qe.queue.expired").Value())
	}
	close(src.gate)
	if err := <-done; err != nil {
		t.Fatalf("first request: %v", err)
	}
}

// TestBatchAssembly checks the many-to-many matrix against the stub's
// closed form, and that builds happen once per distinct source.
func TestBatchAssembly(t *testing.T) {
	src := &stubSource{n: 64}
	e, reg := newTestEngine(src, Config{MaxInflight: 4, QueueDepth: 4})

	sources := []int32{7, 3, 7, 9, 3, 7} // 3 distinct
	targets := []int32{0, 5, 63}
	got, err := e.Batch(context.Background(), sources, targets)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(sources) {
		t.Fatalf("rows = %d, want %d", len(got), len(sources))
	}
	for i, u := range sources {
		for j, v := range targets {
			if want := graph.Weight(int(u)*1000 + int(v)); got[i][j] != want {
				t.Fatalf("batch[%d][%d] = %v, want %v", i, j, got[i][j], want)
			}
		}
	}
	if builds := reg.Counter("qe.rows.built").Value(); builds != 3 {
		t.Fatalf("builds = %d for 3 distinct sources, want 3", builds)
	}
	// No row outlives its batch: the same batch again builds its three
	// rows again.
	if _, err := e.Batch(context.Background(), sources, targets); err != nil {
		t.Fatal(err)
	}
	if builds := reg.Counter("qe.rows.built").Value(); builds != 6 {
		t.Fatalf("builds = %d after a second batch, want 6", builds)
	}
	if reg.Counter("qe.batch.sources").Value() != 6 {
		t.Fatalf("batch.sources = %d, want 6", reg.Counter("qe.batch.sources").Value())
	}
}

// TestBatchFlat: the caller-buffer surface fills a reused chunk buffer
// with the same values Batch returns, and rejects a mis-sized buffer.
func TestBatchFlat(t *testing.T) {
	src := &stubSource{n: 64}
	e, _ := newTestEngine(src, Config{MaxInflight: 4, QueueDepth: 4})

	targets := []int32{0, 5, 63}
	flat := make([]graph.Weight, 2*len(targets))
	// Page through sources in chunks of 2, reusing one buffer — the async
	// job tier's access pattern.
	for _, chunk := range [][]int32{{7, 3}, {9, 7}} {
		if err := e.BatchFlat(context.Background(), chunk, targets, flat); err != nil {
			t.Fatal(err)
		}
		for i, u := range chunk {
			for j, v := range targets {
				if want := graph.Weight(int(u)*1000 + int(v)); flat[i*len(targets)+j] != want {
					t.Fatalf("chunk %v: flat[%d][%d] = %v, want %v", chunk, i, j, flat[i*len(targets)+j], want)
				}
			}
		}
	}
	if err := e.BatchFlat(context.Background(), []int32{1, 2, 3}, targets, flat); err == nil {
		t.Fatal("mis-sized buffer accepted")
	}
}

// TestBatchAbandonedOnDeadline: a deadline that passes while rows are
// still being built abandons the batch with the context error — the rows
// not yet started are skipped and no partial matrix comes back.
func TestBatchAbandonedOnDeadline(t *testing.T) {
	src := &stubSource{n: 16, gate: make(chan struct{}), began: make(chan int32, 8)}
	e, _ := newTestEngine(src, Config{MaxInflight: 2})

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := e.Batch(ctx, []int32{0, 1, 2, 3, 4, 5}, []int32{7})
		errc <- err
	}()
	<-src.began // a build is in flight and blocked on the gate
	cancel()
	close(src.gate)
	err := <-errc
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "batch abandoned") {
		t.Fatalf("Batch past its deadline: err=%v, want batch abandoned: context canceled", err)
	}
	if b := src.builds.Load(); b > 2 {
		t.Fatalf("%d rows built after cancellation with 2 workers, want ≤ 2", b)
	}
}

// TestBatchEmpty: degenerate shapes are fine.
func TestBatchEmpty(t *testing.T) {
	src := &stubSource{n: 4}
	e, _ := newTestEngine(src, Config{MaxInflight: 1, QueueDepth: 0})
	out, err := e.Batch(context.Background(), nil, nil)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty batch: %v, %d rows", err, len(out))
	}
	out, err = e.Batch(context.Background(), []int32{1, 2}, nil)
	if err != nil || len(out) != 2 || len(out[0]) != 0 {
		t.Fatalf("no-target batch: %v, %v", err, out)
	}
}

// TestValidation: out-of-range vertices are typed errors from both
// surfaces, before any admission or build work.
func TestValidation(t *testing.T) {
	src := &stubSource{n: 4}
	e, reg := newTestEngine(src, Config{MaxInflight: 1, QueueDepth: 0})
	ctx := context.Background()
	for _, pair := range [][2]int32{{-1, 0}, {0, -1}, {4, 0}, {0, 4}} {
		if _, err := e.Query(ctx, pair[0], pair[1]); !errors.Is(err, ErrVertexRange) {
			t.Fatalf("Query(%d,%d): err = %v, want ErrVertexRange", pair[0], pair[1], err)
		}
	}
	if _, err := e.Batch(ctx, []int32{0, 9}, []int32{0}); !errors.Is(err, ErrVertexRange) {
		t.Fatalf("batch bad source: %v", err)
	}
	if _, err := e.Batch(ctx, []int32{0}, []int32{-2}); !errors.Is(err, ErrVertexRange) {
		t.Fatalf("batch bad target: %v", err)
	}
	if reg.Counter("qe.rows.built").Value() != 0 {
		t.Fatal("validation failure triggered a build")
	}
}

// TestConcurrentMixedLoad hammers one engine with point queries and
// batches from many goroutines — the -race workout for the pooled
// scratch rows and admission together.
func TestConcurrentMixedLoad(t *testing.T) {
	src := &stubSource{n: 128}
	e, reg := newTestEngine(src, Config{MaxInflight: 8, QueueDepth: 256})
	ctx := context.Background()

	var wg sync.WaitGroup
	errc := make(chan error, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				u := int32((w*13 + i) % 40)
				d, err := e.Query(ctx, u, int32(i%128))
				if err != nil {
					errc <- err
					return
				}
				if want := graph.Weight(int(u)*1000 + i%128); d != want {
					errc <- errors.New("wrong distance under load")
					return
				}
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sources := []int32{int32(w), int32(w + 10), int32(w + 20)}
			targets := []int32{1, 2, 3, 4}
			for i := 0; i < 20; i++ {
				out, err := e.Batch(ctx, sources, targets)
				if err != nil {
					errc <- err
					return
				}
				if out[2][3] != graph.Weight(int(sources[2])*1000+4) {
					errc <- errors.New("wrong batch distance under load")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if reg.Gauge("qe.inflight").Value() != 0 || reg.Gauge("qe.queue.depth").Value() != 0 {
		t.Fatalf("gauges not drained: inflight=%d queued=%d",
			reg.Gauge("qe.inflight").Value(), reg.Gauge("qe.queue.depth").Value())
	}
}

// TestUnreachableSentinel: the Inf sentinel round-trips through the
// engine untouched.
func TestUnreachableSentinel(t *testing.T) {
	if !Unreachable(inf) || Unreachable(3) {
		t.Fatal("Unreachable misclassifies")
	}
}

// TestZeroConfigEngine: an engine built from a zero-value Config, as the
// benchmark builds its in-process engines, answers and counts into
// detached metrics of its own — two such engines share no counter.
func TestZeroConfigEngine(t *testing.T) {
	e, other := New(&stubSource{n: 4}, Config{}), New(&stubSource{n: 4}, Config{})
	d, err := e.Query(context.Background(), 2, 3)
	if err != nil || d != 2003 {
		t.Fatalf("Query(2, 3) = %v, %v, want 2003", d, err)
	}
	if got := e.builds.Value(); got != 1 {
		t.Fatalf("qe.rows.built = %d, want 1", got)
	}
	if got := other.builds.Value(); got != 0 {
		t.Fatalf("an idle engine counted %d builds: zero-config engines share a counter", got)
	}
}
