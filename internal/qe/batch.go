package qe

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/ds"
	"repro/internal/graph"
	"repro/internal/par"
)

// batchScratch is the pooled per-call working state of BatchFlat and of
// Query's row path: the dedup index, the distinct/first slices, and one
// row buffer per worker. Pooling it keeps a warm Batch's allocations down
// to the result matrix the caller receives (out + flat) and a rows-only
// Query's to none.
type batchScratch struct {
	e        *Engine
	index    ds.Index32
	distinct []int32          // distinct sources, first-seen order
	first    []int32          // per distinct: index in sources of its first occurrence
	rows     [][]graph.Weight // per par.ParallelForCtx worker: the row it builds

	// The batch being answered, set by BatchFlat for the length of one
	// call, so that fill — bound to each once, when the scratch is made —
	// is the fan-out body without a closure per call.
	ctx     context.Context
	src     RowSource
	n       int
	targets []int32
	flat    []graph.Weight
	failure atomic.Pointer[error] // the first failed build; the rest are skipped
	each    func(worker, i int)
}

func newBatchScratch(e *Engine) *batchScratch {
	sc := &batchScratch{e: e, rows: make([][]graph.Weight, e.workers)}
	sc.each = sc.fill
	return sc
}

// row returns worker w's row buffer, sized n.
func (sc *batchScratch) row(w, n int) []graph.Weight {
	if cap(sc.rows[w]) < n {
		sc.rows[w] = make([]graph.Weight, n)
	}
	return sc.rows[w][:n]
}

// fill builds the row of distinct source i into worker w's buffer and
// copies its targets into the flat-matrix row of the source's first
// occurrence. Distinct sources own disjoint matrix rows and workers own
// disjoint buffers, so fills need no coordination beyond the failure
// latch.
func (sc *batchScratch) fill(w, i int) {
	if sc.failure.Load() != nil {
		return
	}
	row := sc.row(w, sc.n)
	if err := sc.e.buildRow(sc.ctx, sc.src, sc.distinct[i], row); err != nil {
		failed := err // taking err's own address would move it to the heap on every fill
		sc.failure.CompareAndSwap(nil, &failed)
		return
	}
	nt := len(sc.targets)
	dst := sc.flat[int(sc.first[i])*nt : (int(sc.first[i])+1)*nt]
	for j, v := range sc.targets {
		dst[j] = row[v]
	}
}

// Batch answers the many-to-many query set sources × targets: the result
// is len(sources) rows of len(targets) distances, where result[i][j] =
// d(sources[i], targets[j]) and unreachable pairs carry the Inf sentinel
// (test with Unreachable).
//
// The whole batch is one admitted request (one admission slot, one
// deadline) answered by one source; its result matrix is bounded by
// maxBatchPairs, and an over-cap request fails with
// ErrBatchTooLarge before anything is allocated. Each distinct source's
// row is built once, into a per-worker scratch row, across a pool of
// workers (par.ParallelForCtx), and only the requested targets are copied
// out. A batch allocates only the matrix it returns, plus the fan-out's
// goroutines when it has more than one worker.
//
// On deadline expiry mid-batch the remaining rows are skipped and the
// context error is returned; no partial matrix is produced.
func (e *Engine) Batch(ctx context.Context, sources, targets []int32) ([][]graph.Weight, error) {
	if err := checkPairs(sources, targets); err != nil {
		return nil, err
	}
	nt := len(targets)
	out := make([][]graph.Weight, len(sources))
	flat := make([]graph.Weight, len(sources)*nt)
	if err := e.BatchFlat(ctx, sources, targets, flat); err != nil {
		return nil, err
	}
	for i := range sources {
		out[i] = flat[i*nt : (i+1)*nt]
	}
	return out, nil
}

// checkPairs refuses a matrix over maxBatchPairs, the guard on Batch's
// result allocation. The division form cannot overflow, unlike the
// product.
func checkPairs(sources, targets []int32) error {
	if len(targets) > 0 && len(sources) > maxBatchPairs/len(targets) {
		return fmt.Errorf("qe: batch %d×%d exceeds %d pairs: %w",
			len(sources), len(targets), maxBatchPairs, ErrBatchTooLarge)
	}
	return nil
}

// BatchFlat is Batch writing into a caller-provided row-major matrix:
// flat[i*len(targets)+j] = d(sources[i], targets[j]). len(flat) must be
// exactly len(sources)*len(targets). It exists for callers that page
// through a larger matrix in source chunks — the async job tier streams a
// full distance matrix by reusing one chunk-sized buffer across
// BatchFlat calls instead of allocating a fresh matrix per chunk.
// Admission, the pair cap, dedup, and scheduling behave exactly as in
// Batch; on error the contents of flat are unspecified.
func (e *Engine) BatchFlat(ctx context.Context, sources, targets []int32, flat []graph.Weight) error {
	if len(flat) != len(sources)*len(targets) {
		return fmt.Errorf("qe: batch matrix buffer holds %d weights, %d×%d batch needs %d",
			len(flat), len(sources), len(targets), len(sources)*len(targets))
	}
	// One read of the source: the whole batch is validated against and
	// answered by it, even if SwapSource installs another meanwhile.
	l := e.live.Load()
	src, n := l.src, l.n
	for _, u := range sources {
		if err := e.checkVertex("source", u, n); err != nil {
			return err
		}
	}
	for _, v := range targets {
		if err := e.checkVertex("target", v, n); err != nil {
			return err
		}
	}
	// Before admission, so an oversized request cannot occupy a slot.
	if err := checkPairs(sources, targets); err != nil {
		return err
	}
	ctx, cancel := e.withDeadline(ctx)
	defer cancel()
	if err := e.adm.acquire(ctx); err != nil {
		return err
	}
	defer e.adm.release()

	sc := e.scratch.Get().(*batchScratch)
	defer e.scratch.Put(sc)
	// Distinct sources in first-seen order; each owns the matrix row of its
	// first occurrence, which fill writes and the assembly below copies.
	sc.index.Reset()
	sc.distinct, sc.first = sc.distinct[:0], sc.first[:0]
	for i, u := range sources {
		if _, seen := sc.index.GetOrPut(u, int32(len(sc.distinct))); !seen {
			sc.distinct = append(sc.distinct, u)
			sc.first = append(sc.first, int32(i))
		}
	}
	e.batchSources.Add(int64(len(sc.distinct)))
	e.batchPairs.Add(int64(len(sources)) * int64(len(targets)))

	nt := len(targets)
	if nt > 0 {
		// One failed row build fails the whole batch: a partial matrix is
		// indistinguishable from a complete one, so a fan-out source's
		// shard outage must surface as an error, never as Inf-padded rows.
		sc.ctx, sc.src, sc.n, sc.targets, sc.flat = ctx, src, n, targets, flat
		_ = par.ParallelForCtx(ctx, e.workers, len(sc.distinct), sc.each)
		sc.ctx, sc.src, sc.targets, sc.flat = nil, nil, nil, nil
		failure := sc.failure.Swap(nil)
		// Read the context here, not ParallelForCtx's result: a deadline
		// that passes during the last row abandons the batch too.
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("qe: batch abandoned: %w", err)
		}
		if failure != nil {
			return fmt.Errorf("qe: batch row build failed: %w", *failure)
		}
	}

	// Assembly: duplicate sources copy their distinct row's slot.
	for i, u := range sources {
		di, _ := sc.index.Get(u)
		if fi := int(sc.first[di]); fi != i {
			copy(flat[i*nt:(i+1)*nt], flat[fi*nt:(fi+1)*nt])
		}
	}
	return nil
}
