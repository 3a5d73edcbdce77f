// Package qe is the query engine that sits between a serving layer
// (cmd/oracled) and a distance oracle (apsp.Oracle, or a sharded
// frontend's shard.RemoteSource). The paper's construction makes a pair an
// O(1) lookup over the O(a² + Σnᵢ²) tables and a source row cheap enough
// to build on demand (Section 2); the resident tables are the cache, so
// this package keeps nothing else resident. It adds the serving discipline
// around both, at the granularity each request needs:
//
//   - pairs for point queries: Query asks the source for exactly one pair
//     (PairSource). A local oracle answers from its resident tables and a
//     sharded frontend fetches at most the pair's two block rows; neither
//     builds a row. A source without the pair method is answered by
//     building the one row into pooled scratch and reading one entry;
//   - rows for bulk work: Batch (and through it the batch_matrix and
//     betweenness jobs) answers an N×M matrix by building each distinct
//     source's row once, into a per-worker scratch row, over the engine's
//     workers, and copying the requested targets straight into the
//     result. No row outlives the request that built it. A matrix over
//     MaxBatchPairs is refused with the typed ErrBatchTooLarge before
//     anything is allocated;
//   - admission control: at most MaxInflight requests are served
//     concurrently, at most QueueDepth more may wait (until the engine
//     deadline), and everything beyond that is shed with the typed
//     ErrOverloaded so the HTTP layer can answer 503 + Retry-After. It
//     applies to pairs and rows alike.
//
// A pair on a local oracle and a rows-only Query allocate nothing, and a
// Batch only the matrix it returns (AllocsPerRun tests and the CI bench
// gate pin all three). Every request reads the source and its vertex count once, so a request
// racing SwapSource is answered in full by the old source or in full by
// the new one. Engines are safe for concurrent use; every exported method
// is panic-free on arbitrary input.
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

// RowSource is the oracle surface the engine builds rows from:
// apsp.Oracle, or shard.RemoteSource on a cluster frontend. Row must be
// safe for concurrent callers and must fill out[:NumVertices()].
type RowSource interface {
	NumVertices() int
	Row(src int32, out []graph.Weight) int64
}

// CtxRowSource is the optional extension a RowSource implements when
// building a row can fail or should observe cancellation — a fan-out
// source fetching rows from shard daemons (internal/shard.RemoteSource)
// rather than reading local tables. When the live source implements it,
// the engine builds rows through RowCtx instead of Row and the error
// propagates to the requesting caller, so one shard outage degrades into
// retryable request errors instead of wrong answers. The ctx is the
// admitted request's context (engine deadline applied, for pairs too: a
// CtxRowSource is a source whose calls can block).
type CtxRowSource interface {
	RowCtx(ctx context.Context, src int32, out []graph.Weight) (int64, error)
}

// PairSource is the optional extension a RowSource implements when it can
// answer one pair without building the row — apsp.Oracle from its
// resident tables, shard.RemoteSource by fetching only the
// pair's own block rows. When the live source implements it, Query calls
// Pair behind admission and builds no row; Batch keeps building rows. u
// and v are already validated against NumVertices(); ctx is the admitted
// request's context (engine deadline applied where Query says). An error
// propagates to the caller as is.
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
)

// Config tunes an Engine. The zero value is usable: see the field
// comments for how zero resolves.
type Config struct {
	// MaxInflight bounds concurrently served requests; ≤ 0 resolves to
	// par.Workers().
	MaxInflight int
	// QueueDepth bounds requests waiting for admission beyond
	// MaxInflight; negative resolves to 0 (shed immediately when all
	// slots are busy).
	QueueDepth int
	// Deadline bounds each request that arrives without its own context
	// deadline where it can wait: queued for admission, or in a call to a
	// CtxRowSource. ≤ 0 means no engine-imposed deadline.
	Deadline time.Duration
	// MaxBatchPairs bounds |sources|×|targets| for one Batch call; larger
	// requests fail with ErrBatchTooLarge before allocating the result
	// matrix. 0 resolves to DefaultMaxBatchPairs; negative removes the
	// cap.
	MaxBatchPairs int64
	// Reg receives the engine's metrics under "qe.*"; nil keeps them
	// detached, counted but rendered nowhere.
	Reg *obs.Registry
}

// DefaultCacheRows configures nothing: the engine keeps no rows. It
// survives only because the benchmark module sizes its cold walk with it
// (bench/workloads.go) and leaves when the benchmark stops doing so.
const DefaultCacheRows = 4096

// DefaultMaxBatchPairs is the Batch pair cap when Config.MaxBatchPairs is
// 0: one million pairs ≈ an 8 MB float64 result matrix.
const DefaultMaxBatchPairs = 1 << 20

// Engine answers point and bulk distance queries over one RowSource.
type Engine struct {
	adm      *admission
	deadline time.Duration
	workers  int
	maxPairs int64
	scratch  sync.Pool // *batchScratch
	live     atomic.Pointer[liveSource]

	builds       *obs.Counter
	buildOps     *obs.Counter
	buildErrs    *obs.Counter
	buildLat     *obs.Histogram
	pairs        *obs.Counter
	pairLat      *obs.Histogram
	batchSources *obs.Counter
	batchPairs   *obs.Counter
}

// liveSource is what SwapSource installs, in one store: the source, the
// seams resolved from it once, and its vertex count.
type liveSource struct {
	src    RowSource
	pair   PairSource // src's pair method; nil when it has none
	blocks bool       // src is a CtxRowSource: its calls may wait
	n      int
}

// New builds an engine over src. Metrics register immediately so they are
// visible (at zero) before the first request.
func New(src RowSource, cfg Config) *Engine {
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
		adm:      newAdmission(workers, queue, cfg.Reg),
		deadline: cfg.Deadline,
		workers:  workers,
		maxPairs: maxPairs,

		builds:       cfg.Reg.Counter("qe.rows.built"),
		buildOps:     cfg.Reg.Counter("qe.rows.build.ops"),
		buildErrs:    cfg.Reg.Counter("qe.rows.build.errors"),
		buildLat:     cfg.Reg.Histogram("qe.rows.build.latency"),
		pairs:        cfg.Reg.Counter("qe.pairs"),
		pairLat:      cfg.Reg.Histogram("qe.pairs.latency"),
		batchSources: cfg.Reg.Counter("qe.batch.sources"),
		batchPairs:   cfg.Reg.Counter("qe.batch.pairs"),
	}
	e.SwapSource(src)
	e.scratch.New = func() any { return newBatchScratch(e) }
	return e
}

// SwapSource installs src as the engine's source, with its vertex count
// and seams resolved once so every request reads them all in one load.
// It is the serving-side half of apsp's delta machinery: ApplyDelta
// returns a new oracle and SwapSource installs it.
// A request already past that read answers from the old source in full;
// every later one from src.
func (e *Engine) SwapSource(src RowSource) {
	pair, _ := src.(PairSource)
	_, blocks := src.(CtxRowSource)
	e.live.Store(&liveSource{src: src, pair: pair, blocks: blocks, n: src.NumVertices()})
}

// NumVertices returns the vertex count of the current source.
func (e *Engine) NumVertices() int { return e.live.Load().n }

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
// block-row fetches on a sharded frontend. The engine deadline is applied
// only where the request can wait: when it has to queue for a slot, and
// when the source is a CtxRowSource. A local pair admitted from a free
// slot therefore builds no context and no timer, and allocates nothing.
// qe.pairs counts the pairs answered, qe.pairs.latency times every
// call to the source, failed ones included. The error is
// ErrVertexRange, ErrOverloaded, a context error from waiting for
// admission, or the source's own (a frontend's typed shard failure);
// unreachable pairs report apsp Inf, not an error.
//
// Admission is never bypassed: a pair still occupies an inflight slot, so
// overload shedding stays accurate under point traffic.
//
// A source without a pair method is answered by building u's row into
// pooled scratch and reading entry v; with warm scratch that allocates
// nothing either.
func (e *Engine) Query(ctx context.Context, u, v int32) (graph.Weight, error) {
	l := e.live.Load()
	if err := e.checkVertex("source", u, l.n); err != nil {
		return inf, err
	}
	if err := e.checkVertex("target", v, l.n); err != nil {
		return inf, err
	}
	admitted := e.adm.tryAcquire()
	if !admitted || l.blocks {
		var cancel context.CancelFunc
		ctx, cancel = e.withDeadline(ctx)
		defer cancel()
	}
	if !admitted {
		if err := e.adm.acquire(ctx); err != nil {
			return inf, err
		}
	}
	defer e.adm.release()
	if l.pair != nil {
		t0 := time.Now()
		d, err := l.pair.Pair(ctx, u, v)
		e.pairLat.Observe(time.Since(t0))
		if err != nil {
			return inf, err
		}
		e.pairs.Inc()
		return d, nil
	}
	sc := e.scratch.Get().(*batchScratch)
	defer e.scratch.Put(sc)
	row := sc.row(0, l.n)
	if err := e.buildRow(ctx, l.src, u, row); err != nil {
		return inf, err
	}
	return row[v], nil
}

// buildRow fills row, sized to src's vertex count, with the distances
// from u — through RowCtx when src can fail — and accounts the build
// under qe.rows.*.
func (e *Engine) buildRow(ctx context.Context, src RowSource, u int32, row []graph.Weight) error {
	t0 := time.Now()
	var ops int64
	var err error
	if crs, ok := src.(CtxRowSource); ok {
		ops, err = crs.RowCtx(ctx, u, row)
	} else {
		ops = src.Row(u, row)
	}
	e.buildLat.Observe(time.Since(t0))
	if err != nil {
		e.buildErrs.Inc()
		return err
	}
	e.builds.Inc()
	e.buildOps.Add(ops)
	return nil
}

// inf mirrors apsp.Inf / sssp.Inf without importing either package; qe
// depends only on the RowSource contract that unreachable entries carry
// this sentinel.
const inf = graph.Weight(math.MaxFloat64)

// Unreachable reports whether a distance returned by Query or Batch means
// "no path".
func Unreachable(d graph.Weight) bool { return d >= inf }
