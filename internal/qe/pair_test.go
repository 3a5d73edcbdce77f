package qe

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/apsp"
	"repro/internal/gen"
	"repro/internal/graph"
)

// pairOracle is a small multi-block oracle: the pair path's AP/AP,
// AP/regular, same-block and cross-block cases all occur.
func pairOracle() *apsp.Oracle {
	cfg := gen.Config{MaxWeight: 9}
	rng := gen.NewRNG(0x9a17)
	return apsp.NewOracle(gen.ChainBlocks([]*graph.Graph{
		gen.CycleNecklace(3, 3, cfg, rng),
		gen.Theta([]int{0, 2, 3}, cfg, rng),
		gen.Ring(5, cfg, rng),
	}, cfg, rng))
}

// TestQueryPairZeroAllocs pins the pair path over a real oracle: every
// answer is the oracle's QueryChecked, nothing is allocated, and no row
// is built.
func TestQueryPairZeroAllocs(t *testing.T) {
	o := pairOracle()
	e, reg := newTestEngine(o, Config{MaxInflight: 4})
	ctx := context.Background()
	n := int32(o.NumVertices())
	for u := int32(0); u < n; u++ {
		for v := int32(0); v < n; v++ {
			got, err := e.Query(ctx, u, v)
			want, _ := o.QueryChecked(u, v)
			if err != nil || got != want {
				t.Fatalf("Query(%d,%d) = %v, %v; oracle says %v", u, v, got, err, want)
			}
		}
	}
	if got := reg.Counter("qe.pairs").Value(); got != int64(n)*int64(n) {
		t.Fatalf("qe.pairs = %d, want %d", got, int64(n)*int64(n))
	}
	if got := reg.Histogram("qe.pairs.latency").Count(); got != int64(n)*int64(n) {
		t.Fatalf("qe.pairs.latency count = %d, want %d", got, int64(n)*int64(n))
	}
	if got := reg.Counter("qe.rows.built").Value(); got != 0 {
		t.Errorf("qe.rows.built = %d after pair queries, want 0", got)
	}

	if raceEnabled {
		return // alloc counts are not meaningful under -race
	}
	var i int32
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := e.Query(ctx, i%n, (i*7+3)%n); err != nil {
			t.Fatalf("query: %v", err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("pair Query allocates %v/op, want 0", allocs)
	}
}

// TestQueryPairWithDeadlineZeroAllocs is BenchmarkQEQueryPair's 0
// allocs/op as a test: a pair on a local oracle admitted from a free slot
// cannot wait, so the engine deadline builds no context and no timer.
func TestQueryPairWithDeadlineZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not meaningful under -race")
	}
	o := pairOracle()
	e, _ := newTestEngine(o, Config{MaxInflight: 4, Deadline: 2 * time.Second})
	ctx := context.Background()
	n := int32(o.NumVertices())
	var i int32
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := e.Query(ctx, i%n, (i*7+3)%n); err != nil {
			t.Fatalf("query: %v", err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("pair Query with a deadline allocates %v/op, want 0", allocs)
	}
}

// deadlineProbe is a pair source that reports whether each call's context
// carries a deadline; with blocking set it is also a CtxRowSource, the
// shape of a sharded frontend's source.
type deadlineProbe struct {
	stubSource
	seen  chan bool
	gate  chan struct{} // nil: never block
	began chan struct{} // nil: don't announce
}

func (p *deadlineProbe) Pair(ctx context.Context, u, v int32) (graph.Weight, error) {
	if p.began != nil {
		p.began <- struct{}{}
		<-p.gate
	}
	_, has := ctx.Deadline()
	p.seen <- has
	return graph.Weight(int(u)*1000 + int(v)), nil
}

type blockingProbe struct{ *deadlineProbe }

func (blockingProbe) RowCtx(context.Context, int32, []graph.Weight) (int64, error) { return 0, nil }

// TestQueryDeadlineOnlyWhereItCanWait pins where Query applies the engine
// deadline: not to a local pair admitted from a free slot; to every call
// of a source that can block (a CtxRowSource); and to a request that had
// to queue for its slot, whose source call then keeps it.
func TestQueryDeadlineOnlyWhereItCanWait(t *testing.T) {
	ctx := context.Background()
	cfg := Config{MaxInflight: 1, QueueDepth: 1, Deadline: time.Hour}
	local := &deadlineProbe{stubSource: stubSource{n: 8}, seen: make(chan bool, 2)}
	e, _ := newTestEngine(local, cfg)
	if _, err := e.Query(ctx, 1, 2); err != nil || <-local.seen {
		t.Fatalf("local pair from a free slot: err %v, or its context had a deadline", err)
	}

	remote := blockingProbe{&deadlineProbe{stubSource: stubSource{n: 8}, seen: make(chan bool, 1)}}
	er, _ := newTestEngine(remote, cfg)
	if _, err := er.Query(ctx, 1, 2); err != nil || !<-remote.seen {
		t.Fatalf("blocking source: err %v, or its context had no deadline", err)
	}

	local.gate, local.began = make(chan struct{}), make(chan struct{}, 1)
	first := make(chan error, 1)
	go func() {
		_, err := e.Query(ctx, 1, 2)
		first <- err
	}()
	<-local.began // the only slot is now held inside Pair
	queued := make(chan error, 1)
	go func() {
		_, err := e.Query(ctx, 2, 3)
		queued <- err
	}()
	for e.adm.queued.Value() == 0 {
		time.Sleep(time.Millisecond)
	}
	local.began = nil
	close(local.gate)
	if err := <-first; err != nil || <-local.seen {
		t.Fatalf("first request: err %v, or its context had a deadline", err)
	}
	if err := <-queued; err != nil || !<-local.seen {
		t.Fatalf("queued request: err %v, or its context had no deadline", err)
	}
}

// TestQueryPairSwapRace hammers Query while SwapSource flips the engine
// between an oracle and its successor under a delta that changes a weight
// and grows the vertex range. Every answer must be one oracle's
// QueryChecked — the pair method and the vertex count it was validated
// against are read together — and a vertex only the successor has is
// either ErrVertexRange (old) or the successor's answer, never a panic.
func TestQueryPairSwapRace(t *testing.T) {
	old := pairOracle()
	n := int32(old.NumVertices())
	next, _, err := old.ApplyDelta(context.Background(), []apsp.Delta{
		{Kind: apsp.DeltaWeight, Edge: 0, W: old.G.Edge(0).W + 5},
		{Kind: apsp.DeltaInsert, U: 1, V: n, W: 2},
	})
	if err != nil {
		t.Fatal(err)
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
	var readers sync.WaitGroup
	for g := int32(0); g < 4; g++ {
		readers.Add(1)
		go func(g int32) {
			defer readers.Done()
			for i := int32(0); i < 20_000; i++ {
				u, v := (i+g)%(n+1), (i*5+g)%(n+1)
				d, err := e.Query(ctx, u, v)
				if errors.Is(err, ErrVertexRange) && (u == n || v == n) {
					continue // answered by the old source
				}
				if err != nil {
					t.Errorf("Query(%d,%d): %v", u, v, err)
					return
				}
				dn, _ := next.QueryChecked(u, v)
				if do, oerr := old.QueryChecked(u, v); d != dn && (oerr != nil || d != do) {
					t.Errorf("Query(%d,%d) = %v: neither old %v nor new %v", u, v, d, do, dn)
					return
				}
			}
		}(g)
	}
	readers.Wait()
	close(stop)
	<-swapped
}

// gatedPairs is a pair source whose Pair blocks on a gate or fails, for
// the admission and error-propagation cases.
type gatedPairs struct {
	stubSource
	gate  chan struct{}
	began chan struct{}
	err   error
}

func (g *gatedPairs) Pair(ctx context.Context, u, v int32) (graph.Weight, error) {
	if g.began != nil {
		g.began <- struct{}{}
		<-g.gate
	}
	return graph.Weight(int(u)*1000 + int(v)), g.err
}

// TestQueryPairTypedErrors checks that the engine's typed failures are the
// same on the pair path as on the row path: range, overload, deadline in
// the admission queue; and that a source error reaches the caller
// untouched without counting as an answered pair.
func TestQueryPairTypedErrors(t *testing.T) {
	ctx := context.Background()
	src := &gatedPairs{stubSource: stubSource{n: 8}, gate: make(chan struct{}), began: make(chan struct{}, 1)}
	e, reg := newTestEngine(src, Config{MaxInflight: 1, QueueDepth: 1})

	for _, uv := range [][2]int32{{-1, 0}, {0, 8}, {8, 8}} {
		if _, err := e.Query(ctx, uv[0], uv[1]); !errors.Is(err, ErrVertexRange) {
			t.Fatalf("Query(%d,%d): err = %v, want ErrVertexRange", uv[0], uv[1], err)
		}
	}

	first := make(chan error, 1)
	go func() {
		_, err := e.Query(ctx, 1, 2)
		first <- err
	}()
	<-src.began // the only slot is now held inside Pair
	short, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	queued := make(chan error, 1)
	go func() {
		_, err := e.Query(short, 2, 3)
		queued <- err
	}()
	for reg.Gauge("qe.queue.depth").Value() == 0 {
		time.Sleep(time.Millisecond)
	}
	if _, err := e.Query(ctx, 3, 4); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third request: err = %v, want ErrOverloaded", err)
	}
	if err := <-queued; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued request: err = %v, want DeadlineExceeded", err)
	}
	src.began = nil
	close(src.gate)
	if err := <-first; err != nil {
		t.Fatalf("first request: %v", err)
	}

	boom := errors.New("source failed")
	src.err = boom
	answered := reg.Counter("qe.pairs").Value()
	if d, err := e.Query(ctx, 1, 2); err != boom || !Unreachable(d) {
		t.Fatalf("failing source: Query = %v, %v; want Inf and the source's error", d, err)
	}
	if got := reg.Counter("qe.pairs").Value(); got != answered {
		t.Fatalf("failed pair counted as answered: qe.pairs %d → %d", answered, got)
	}
	if got := src.builds.Load(); got != 0 {
		t.Fatalf("pair queries built %d rows, want 0", got)
	}
}
