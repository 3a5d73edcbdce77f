// Package qe is the query engine that sits between a serving layer
// (cmd/oracled) and a distance oracle (apsp.Oracle, or a sharded
// frontend's shard.RemoteSource). The paper's construction makes a pair an
// O(1) lookup over the O(a² + Σnᵢ²) tables and a source row cheap enough
// to build on demand (Section 2); this package adds the serving discipline
// around both, at the granularity each request needs:
//
//   - pairs for point queries: Query asks the source for exactly one pair
//     (PairSource). A local oracle answers from its resident tables — the
//     oracle is the cache — and a sharded frontend fetches at most the
//     pair's two block rows; neither builds, caches or refcounts a row. A
//     source without the pair method is served through the row path below;
//   - rows for bulk work: Batch (and through it the batch_matrix and
//     betweenness jobs) materialises distances one source row at a time,
//     so targets sharing a source share their work;
//   - coalescing: concurrent requests for the same uncached row wait on a
//     single in-flight computation (singleflight) instead of duplicating
//     it;
//   - caching: completed rows live in a sharded, size-bounded LRU with
//     hit/miss/eviction counters and an occupancy gauge in internal/obs;
//   - buffer arena: rows are arena-backed and reference-counted, so a
//     Batch whose rows are all cached allocates nothing beyond the
//     caller's result matrix, and a pair Query allocates nothing at all
//     (both pinned by AllocsPerRun tests and the CI bench gate);
//   - admission control: at most MaxInflight requests are served
//     concurrently, at most QueueDepth more may wait (with per-request
//     deadlines), and everything beyond that is shed with the typed
//     ErrOverloaded so the HTTP layer can answer 503 + Retry-After. It
//     applies to pairs and rows alike;
//   - bulk queries: Batch answers an N×M many-to-many matrix with one row
//     computation per distinct source, spread over the engine's workers
//     by par.ParallelForCtx. Requests whose
//     result matrix would exceed MaxBatchPairs are rejected with the
//     typed ErrBatchTooLarge before anything is allocated.
//
// Engines are safe for concurrent use; every exported method is
// panic-free on arbitrary input.
package qe

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/par"
)

// RowSource is the oracle surface the engine builds rows from.
// apsp.Oracle and apsp.EarAPSP both satisfy it. Row must be safe for
// concurrent callers and must fill out[:NumVertices()].
type RowSource interface {
	NumVertices() int
	Row(src int32, out []graph.Weight) int64
}

// CtxRowSource is the optional extension a RowSource implements when
// building a row can fail or should observe cancellation — a fan-out
// source fetching rows from shard daemons (internal/shard.RemoteSource)
// rather than reading local tables. When the live source implements it,
// the engine builds rows through RowCtx instead of Row: the error
// propagates to the requesting caller and every coalesced waiter, and a
// failed row is never admitted to the cache, so one shard outage
// degrades into retryable request errors instead of cached wrong
// answers. The ctx is the admitted request's context (engine deadline
// applied); coalesced waiters share the builder's fate, including its
// cancellation.
type CtxRowSource interface {
	RowCtx(ctx context.Context, src int32, out []graph.Weight) (int64, error)
}

// PairSource is the optional extension a RowSource implements when it can
// answer one pair without building the row — apsp.Oracle and apsp.EarAPSP
// from their resident tables, shard.RemoteSource by fetching only the
// pair's own block rows. When the live source implements it, Query calls
// Pair behind admission and touches neither the row cache, the arena nor
// the flight map; Batch keeps building rows. u and v are already validated
// against NumVertices(); ctx is the admitted request's context (engine
// deadline applied). An error propagates to the caller as is.
type PairSource interface {
	Pair(ctx context.Context, u, v int32) (graph.Weight, error)
}

// Typed failures of the engine surface. The serving layer matches them
// with errors.Is.
var (
	// ErrOverloaded reports that the admission queue was full and the
	// request was shed without waiting.
	ErrOverloaded = errors.New("qe: overloaded, admission queue full")
	// ErrVertexRange reports a source or target outside [0, n).
	ErrVertexRange = errors.New("qe: vertex out of range")
	// ErrBatchTooLarge reports a Batch whose |sources|×|targets| result
	// matrix exceeds the engine's MaxBatchPairs cap. The request is
	// rejected before any allocation.
	ErrBatchTooLarge = errors.New("qe: batch result matrix over pair cap")
	// ErrClosed reports a Query or Batch against an engine that has been
	// Closed (its host drained and released it).
	ErrClosed = errors.New("qe: engine closed")
)

// Config tunes an Engine. The zero value is usable: see the field
// comments for how zero resolves.
type Config struct {
	// CacheRows bounds the LRU row cache (0 resolves to DefaultCacheRows;
	// negative disables caching entirely, leaving only coalescing).
	CacheRows int
	// MaxInflight bounds concurrently served requests; ≤ 0 resolves to
	// par.Workers().
	MaxInflight int
	// QueueDepth bounds requests waiting for admission beyond
	// MaxInflight; negative resolves to 0 (shed immediately when all
	// slots are busy).
	QueueDepth int
	// Deadline bounds each request that arrives without its own context
	// deadline; ≤ 0 means no engine-imposed deadline.
	Deadline time.Duration
	// MaxBatchPairs bounds |sources|×|targets| for one Batch call; larger
	// requests fail with ErrBatchTooLarge before allocating the result
	// matrix. 0 resolves to DefaultMaxBatchPairs; negative removes the
	// cap.
	MaxBatchPairs int64
	// Reg receives the engine's metrics under "qe.*"; nil resolves to
	// obs.Default.
	Reg *obs.Registry
}

// DefaultCacheRows is the row-cache bound when Config.CacheRows is 0.
const DefaultCacheRows = 4096

// DefaultMaxBatchPairs is the Batch pair cap when Config.MaxBatchPairs is
// 0: one million pairs ≈ an 8 MB float64 result matrix.
const DefaultMaxBatchPairs = 1 << 20

// Engine answers point and bulk distance queries over one RowSource.
type Engine struct {
	cache    *rowCache // nil when caching is disabled
	arena    rowArena
	adm      *admission
	deadline time.Duration
	workers  int
	maxPairs int64
	scratch  sync.Pool // *batchScratch
	closed   atomic.Bool

	// mu guards the live source, its pair seam and vertex count, the swap
	// epoch, and the in-flight map. src/pair/n change only together,
	// through setSource; epoch increments on every swap so a row built
	// against a replaced source is never admitted to the cache (see rowRef
	// and SwapSource).
	mu     sync.Mutex
	src    RowSource
	pair   PairSource // src's pair method; nil when it has none
	n      int
	epoch  uint64
	flight map[int32]*rowCall

	builds       *obs.Counter
	buildOps     *obs.Counter
	buildErrs    *obs.Counter
	coalesced    *obs.Counter
	buildLat     *obs.Histogram
	pairs        *obs.Counter
	pairLat      *obs.Histogram
	batchSources *obs.Counter
	batchPairs   *obs.Counter
}

// rowCall is one in-flight row computation other requests coalesce onto.
// waiters is maintained under Engine.mu; the builder folds it into the
// buffer's reference count before publishing buf and closing done, so
// every waiter wakes holding exactly one reference it must release. A
// failed build publishes err instead of buf: waiters wake with no
// reference to release and surface the same error.
type rowCall struct {
	done    chan struct{}
	waiters int32
	buf     *rowBuf
	err     error
}

// New builds an engine over src. Metrics register immediately so they are
// visible (at zero) before the first request.
func New(src RowSource, cfg Config) *Engine {
	reg := cfg.Reg
	if reg == nil {
		reg = obs.Default
	}
	workers := cfg.MaxInflight
	if workers <= 0 {
		workers = par.Workers()
	}
	queue := cfg.QueueDepth
	if queue < 0 {
		queue = 0
	}
	maxPairs := cfg.MaxBatchPairs
	if maxPairs == 0 {
		maxPairs = DefaultMaxBatchPairs
	}
	e := &Engine{
		adm:      newAdmission(workers, queue, reg),
		deadline: cfg.Deadline,
		workers:  workers,
		maxPairs: maxPairs,
		flight:   make(map[int32]*rowCall),

		builds:       reg.Counter("qe.rows.built"),
		buildOps:     reg.Counter("qe.rows.build.ops"),
		buildErrs:    reg.Counter("qe.rows.build.errors"),
		coalesced:    reg.Counter("qe.rows.coalesced"),
		buildLat:     reg.Histogram("qe.rows.build.latency"),
		pairs:        reg.Counter("qe.pairs"),
		pairLat:      reg.Histogram("qe.pairs.latency"),
		batchSources: reg.Counter("qe.batch.sources"),
		batchPairs:   reg.Counter("qe.batch.pairs"),
	}
	e.setSource(src)
	e.scratch.New = func() any { return new(batchScratch) }
	rows := cfg.CacheRows
	if rows == 0 {
		rows = DefaultCacheRows
	}
	if rows > 0 {
		e.cache = newRowCache(rows, reg, &e.arena)
	}
	return e
}

// setSource installs src with its vertex count and pair seam, resolved
// here once so Query reads all three in one critical section. The caller
// holds mu (or, in New, is the only goroutine).
func (e *Engine) setSource(src RowSource) {
	e.src = src
	e.n = src.NumVertices()
	e.pair, _ = src.(PairSource)
}

// NumVertices returns the vertex count of the current source.
func (e *Engine) NumVertices() int {
	e.mu.Lock()
	n := e.n
	e.mu.Unlock()
	return n
}

// checkVertex validates one vertex ID against vertex count n.
func (e *Engine) checkVertex(what string, v int32, n int) error {
	if v < 0 || int(v) >= n {
		return fmt.Errorf("%s %d outside [0, %d): %w", what, v, n, ErrVertexRange)
	}
	return nil
}

// withDeadline applies the engine deadline to contexts that do not carry
// their own.
func (e *Engine) withDeadline(ctx context.Context) (context.Context, context.CancelFunc) {
	if e.deadline <= 0 {
		return ctx, func() {}
	}
	if _, ok := ctx.Deadline(); ok {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, e.deadline)
}

// Query answers one pair: validation, admission, then one call to the
// source's pair method — O(1) table reads on a local oracle, at most two
// block-row fetches on a sharded frontend. No row is built, cached or
// refcounted, and on a local oracle the call allocates nothing (beyond
// the deadline context, when the engine imposes one). qe.pairs counts the
// pairs answered, qe.pairs.latency times every call to the source,
// failed ones included. The error is ErrClosed,
// ErrVertexRange, ErrOverloaded, a context error from waiting for
// admission, or the source's own (a frontend's typed shard failure);
// unreachable pairs report apsp Inf, not an error.
//
// The source, its vertex count and its pair method are read in one
// critical section, so a Query racing a SwapSource is validated against
// and answered by one source — the old or the new, never a mix.
// Admission is never bypassed: a pair still occupies an inflight slot, so
// overload shedding stays accurate under point traffic.
//
// A source without a pair method is answered through the row machinery
// instead: the cached (or coalesced, or freshly built) row for u, then
// one read; the cache-hit case reads the entry in place under the shard
// lock and allocates nothing either.
func (e *Engine) Query(ctx context.Context, u, v int32) (graph.Weight, error) {
	if e.closed.Load() {
		return inf, ErrClosed
	}
	e.mu.Lock()
	n, pair := e.n, e.pair
	e.mu.Unlock()
	if err := e.checkVertex("source", u, n); err != nil {
		return inf, err
	}
	if err := e.checkVertex("target", v, n); err != nil {
		return inf, err
	}
	ctx, cancel := e.withDeadline(ctx)
	defer cancel()
	if err := e.adm.acquire(ctx); err != nil {
		return inf, err
	}
	defer e.adm.release()
	if pair != nil {
		t0 := time.Now()
		d, err := pair.Pair(ctx, u, v)
		e.pairLat.Observe(time.Since(t0))
		if err != nil {
			return inf, err
		}
		e.pairs.Inc()
		return d, nil
	}
	if e.cache != nil {
		if d, ok := e.cache.getAt(u, v); ok {
			return d, nil
		}
	}
	buf, err := e.rowRef(ctx, u)
	if err != nil {
		return inf, err
	}
	d := inf
	// A coalesced row may predate a SwapSource that grew the graph;
	// targets beyond its length are unreachable in that older view.
	if int(v) < len(buf.data) {
		d = buf.data[v]
	}
	e.arena.release(buf)
	return d, nil
}

// rowRef returns a referenced buffer holding the distance row for src,
// coalescing with any in-flight build. The caller owns exactly one
// reference and must release it after reading. Callers must have
// validated src; rowRef does not consult the cache (Query and Batch check
// it first so hits never touch the flight map).
//
// Every row is built against exactly one source: the build captures
// (src, n, epoch) in one critical section, and the finished row enters
// the cache only if the epoch is still current when it completes. A build
// racing a SwapSource therefore yields a row that is fully old — served
// to its waiters, never cached — or fully new; never a mix.
//
// Reference accounting: the builder publishes the total in one store —
// one for itself, one per coalesced waiter, one for the cache when the
// row is admitted — before closing done, so no holder can release a
// count that has not been taken yet.
func (e *Engine) rowRef(ctx context.Context, src int32) (*rowBuf, error) {
	e.mu.Lock()
	if c, ok := e.flight[src]; ok {
		c.waiters++
		e.mu.Unlock()
		e.coalesced.Inc()
		<-c.done
		return c.buf, c.err
	}
	c := &rowCall{done: make(chan struct{})}
	e.flight[src] = c
	rs, n, epoch := e.src, e.n, e.epoch
	e.mu.Unlock()

	t0 := time.Now()
	buf := e.arena.get(n)
	var ops int64
	var err error
	if crs, ok := rs.(CtxRowSource); ok {
		ops, err = crs.RowCtx(ctx, src, buf.data)
	} else {
		ops = rs.Row(src, buf.data)
	}
	e.buildLat.Observe(time.Since(t0))
	if err != nil {
		// The failed row never reaches the cache; the buffer goes straight
		// back to the arena and every coalesced waiter wakes with the error
		// and no reference to release.
		e.buildErrs.Inc()
		e.mu.Lock()
		delete(e.flight, src)
		e.mu.Unlock()
		buf.refs.Store(1)
		e.arena.release(buf)
		c.err = err
		close(c.done)
		return nil, err
	}
	e.builds.Inc()
	e.buildOps.Add(ops)
	// The epoch re-check and the cache insert share the critical section
	// with SwapSource's epoch bump, so a stale row either lands before the
	// swap (and the swap's eviction pass removes it) or is never cached.
	e.mu.Lock()
	delete(e.flight, src)
	refs := 1 + c.waiters
	cached := e.cache != nil && e.epoch == epoch
	if cached {
		refs++
	}
	buf.refs.Store(refs)
	c.buf = buf
	if cached {
		e.cache.put(src, buf)
	}
	e.mu.Unlock()
	close(c.done)
	return buf, nil
}

// inf mirrors apsp.Inf / sssp.Inf without importing either package; qe
// depends only on the RowSource contract that unreachable entries carry
// this sentinel.
const inf = graph.Weight(math.MaxFloat64)

// Unreachable reports whether a distance returned by Query or Batch means
// "no path".
func Unreachable(d graph.Weight) bool { return d >= inf }
