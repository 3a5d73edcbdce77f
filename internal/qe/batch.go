package qe

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/ds"
	"repro/internal/graph"
	"repro/internal/par"
)

// batchScratch is the pooled per-call working state of Batch: the dedup
// index and the distinct/first/missing slices. Pooling it keeps the
// warm path's allocations down to the result matrix the caller receives
// (out + flat); everything else is reused across calls.
type batchScratch struct {
	index    ds.Index32
	distinct []int32 // distinct sources, first-seen order
	first    []int32 // per distinct: index in sources of its first occurrence
	missing  []int32 // distinct indices whose rows were not cached
}

func (s *batchScratch) reset() {
	s.index.Reset()
	s.distinct = s.distinct[:0]
	s.first = s.first[:0]
	s.missing = s.missing[:0]
}

// Batch answers the many-to-many query set sources × targets: the result
// is len(sources) rows of len(targets) distances, where result[i][j] =
// d(sources[i], targets[j]) and unreachable pairs carry the Inf sentinel
// (test with Unreachable).
//
// The whole batch is one admitted request (one admission slot, one
// deadline); its result matrix is bounded by Config.MaxBatchPairs, and an
// over-cap request fails with ErrBatchTooLarge before anything is
// allocated. Cached rows are copied straight into the result under the
// cache's shard locks; only the rows actually missing are computed — at
// most once per distinct source — one row at a time across a pool of
// workers (par.ParallelForCtx). Concurrent point queries and other
// batches coalesce onto the same builds through the engine's singleflight
// layer. A batch whose rows are all cached allocates only the matrix it
// returns.
//
// On deadline expiry mid-batch the remaining rows are skipped and the
// context error is returned; no partial matrix is produced.
func (e *Engine) Batch(ctx context.Context, sources, targets []int32) ([][]graph.Weight, error) {
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

// BatchFlat is Batch writing into a caller-provided row-major matrix:
// flat[i*len(targets)+j] = d(sources[i], targets[j]). len(flat) must be
// exactly len(sources)*len(targets). It exists for callers that page
// through a larger matrix in source chunks — the async job tier streams a
// full distance matrix by reusing one chunk-sized buffer across
// BatchFlat calls instead of allocating a fresh matrix per chunk.
// Admission, the pair cap, caching, dedup, and scheduling behave exactly
// as in Batch; on error the contents of flat are unspecified.
func (e *Engine) BatchFlat(ctx context.Context, sources, targets []int32, flat []graph.Weight) error {
	if e.closed.Load() {
		return ErrClosed
	}
	if len(flat) != len(sources)*len(targets) {
		return fmt.Errorf("qe: batch matrix buffer holds %d weights, %d×%d batch needs %d",
			len(flat), len(sources), len(targets), len(sources)*len(targets))
	}
	e.mu.Lock()
	n := e.n
	e.mu.Unlock()
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
	// The pair cap guards the result-matrix allocation in Batch; check it
	// before admission so an oversized request cannot occupy a slot. The
	// division form cannot overflow, unlike the product.
	if e.maxPairs >= 0 && len(sources) > 0 && len(targets) > 0 &&
		int64(len(sources)) > e.maxPairs/int64(len(targets)) {
		return fmt.Errorf("qe: batch %d×%d exceeds %d pairs: %w",
			len(sources), len(targets), e.maxPairs, ErrBatchTooLarge)
	}
	ctx, cancel := e.withDeadline(ctx)
	defer cancel()
	if err := e.adm.acquire(ctx); err != nil {
		return err
	}
	defer e.adm.release()

	sc := e.scratch.Get().(*batchScratch)
	sc.reset()
	defer e.scratch.Put(sc)

	// Distinct sources, preserving first-seen order; each distinct source
	// owns the flat-matrix row of its first occurrence, so the build and
	// gather stages write disjoint memory with no further coordination.
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
		// Warm pass: copy every cached row into its first-occurrence slot
		// under the cache's shard lock; collect the rest as misses.
		for di, u := range sc.distinct {
			dst := flat[int(sc.first[di])*nt : (int(sc.first[di])+1)*nt]
			if e.cache != nil && e.cache.gather(u, targets, dst) {
				continue
			}
			sc.missing = append(sc.missing, int32(di))
		}
	}

	if len(sc.missing) > 0 {
		// One failed row build fails the whole batch: a partial matrix is
		// indistinguishable from a complete one, so a fan-out source's
		// shard outage must surface as an error, never as Inf-padded rows.
		// The first error is latched and the remaining rows are skipped,
		// as they are once the deadline has passed.
		var (
			failOnce sync.Once
			failed   atomic.Bool
			failure  error
		)
		_ = par.ParallelForCtx(ctx, e.workers, len(sc.missing), func(_, i int) {
			if failed.Load() {
				return
			}
			di := int(sc.missing[i])
			buf, err := e.rowRef(ctx, sc.distinct[di])
			if err != nil {
				failOnce.Do(func() { failure = err })
				failed.Store(true)
				return
			}
			dst := flat[int(sc.first[di])*nt : (int(sc.first[di])+1)*nt]
			row := buf.data
			for j, v := range targets {
				// A row served from an older epoch can be shorter than the
				// validated target range (see Query); out-of-range means
				// unreachable in that row's view of the graph.
				if int(v) < len(row) {
					dst[j] = row[v]
				} else {
					dst[j] = inf
				}
			}
			e.arena.release(buf)
		})
		// Read the context here, not ParallelForCtx's result: a deadline
		// that passes during the last row abandons the batch too.
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("qe: batch abandoned: %w", err)
		}
		if failed.Load() {
			return fmt.Errorf("qe: batch row build failed: %w", failure)
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
