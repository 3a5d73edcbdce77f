package bc

import (
	"context"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/snapshot"
	"repro/internal/sssp"
)

// Chunked runs every flat Brandes computation: per-source work-units
// claimed in caller-sized chunks, with the accumulated scores available
// between chunks. Parallel and Sampled run one to completion in a single chunk;
// the async job tier drives it chunk by chunk for the three things it
// needs: progress (Done/Total move after every chunk), cancellation at
// chunk granularity (RunChunk observes ctx between and inside chunks),
// and checkpoint/resume (EncodeState persists the partial accumulation so
// a daemon restart re-runs at most one chunk's worth of sources).
//
// However it is chunked, a run over the same source list and scale
// computes the same per-source dependencies. Only the floating-point
// summation order differs — work-units are claimed dynamically across
// workers, so per-worker accumulators fold in a run-dependent order.
//
// Chunked is not safe for concurrent use; one caller owns it.
type Chunked struct {
	g       *graph.Graph
	sources []int32
	scale   float64
	workers int
	unit    bool

	scores []float64 // folded contributions of sources[:done], scaled
	relax  int64
	done   int

	states []*state
	accs   [][]float64
}

// AllSources returns the exact-computation source list 0..n-1.
func AllSources(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

// SampledSources returns the Brandes–Pich sampled source list for a
// k-sample estimate over n vertices, plus the n/k dependency scale. It is
// deterministic in (n, k, seed) — the property checkpoint/resume relies
// on: a restarted job rebuilds the identical list from its persisted spec
// instead of persisting the list itself. k ≥ n degenerates to the exact
// AllSources with scale 1, matching Sampled's behaviour.
func SampledSources(n, k int, seed uint64) ([]int32, float64) {
	if k >= n {
		return AllSources(n), 1
	}
	if k < 1 {
		k = 1
	}
	rng := gen.NewRNG(seed)
	perm := rng.Perm(n)
	return perm[:k], float64(n) / float64(k)
}

// NewChunked prepares a resumable computation over the given source list.
// scale multiplies every accumulated dependency (1 for exact, n/k for
// sampled). The per-worker scratch is allocated up front, so RunChunk
// itself allocates nothing.
func NewChunked(g *graph.Graph, sources []int32, scale float64, workers int) *Chunked {
	if workers < 1 {
		workers = 1
	}
	n := g.NumVertices()
	c := &Chunked{
		g:       g,
		sources: sources,
		scale:   scale,
		workers: workers,
		unit:    sssp.UnitWeights(g),
		scores:  make([]float64, n),
		states:  make([]*state, workers),
		accs:    make([][]float64, workers),
	}
	for w := 0; w < workers; w++ {
		c.states[w] = newState(n)
		c.accs[w] = make([]float64, n)
	}
	return c
}

// Total returns the number of source work-units.
func (c *Chunked) Total() int { return len(c.sources) }

// Done returns how many sources have been folded into the scores.
func (c *Chunked) Done() int { return c.done }

// RunChunk processes up to k further sources in parallel and folds their
// contributions into the accumulated scores, returning how many sources
// were completed. On cancellation the whole in-flight chunk is discarded
// — Done does not advance and the partial per-worker accumulations are
// zeroed — so a resumed run re-executes the chunk from its start and
// never double-counts a source.
func (c *Chunked) RunChunk(ctx context.Context, k int) (int, error) {
	if k > len(c.sources)-c.done {
		k = len(c.sources) - c.done
	}
	if k <= 0 {
		return 0, nil
	}
	chunk := c.sources[c.done : c.done+k]
	relax := make([]int64, c.workers)
	err := par.ParallelForCtx(ctx, c.workers, k, func(w, i int) {
		st, s := c.states[w], chunk[i]
		if c.unit {
			relax[w] += st.forwardBFS(c.g, s)
		} else {
			relax[w] += st.forward(c.g, s)
		}
		st.accumulate(s, c.accs[w], nil, nil)
	})
	if err != nil {
		// Which sources of the chunk completed is indeterminate: discard
		// everything so the chunk is re-runnable.
		for w := range c.accs {
			clear(c.accs[w])
		}
		return 0, err
	}
	for w := range c.accs {
		for v, x := range c.accs[w] {
			if x != 0 {
				c.scores[v] += x * c.scale
				c.accs[w][v] = 0
			}
		}
		c.relax += relax[w]
	}
	c.done += k
	return k, nil
}

// finish runs every remaining source as one chunk and returns the final
// scores, for the one-shot entry points, whose signatures carry no
// context.
func (c *Chunked) finish() *Result {
	_, _ = c.RunChunk(context.TODO(), c.Total()) // fails only on cancellation, and TODO is never cancelled
	return c.Result()
}

// Result returns a copy of the accumulated scores — partial until Done
// equals Total, final after.
func (c *Chunked) Result() *Result {
	out := &Result{Scores: make([]float64, len(c.scores)), Relaxations: c.relax}
	copy(out.Scores, c.scores)
	return out
}

// chunkedStateVersion versions the EncodeState payload.
const chunkedStateVersion = 1

// EncodeState persists the resumable accumulation (sources completed,
// forward-phase work counter, folded scores) into a snapshot section. The
// source list itself is not persisted: it is deterministic in the job
// spec (AllSources / SampledSources), which the resuming side re-derives.
func (c *Chunked) EncodeState(e *snapshot.Encoder) {
	e.U32(chunkedStateVersion)
	e.I64(int64(c.done))
	e.I64(c.relax)
	e.F64s(c.scores)
}

// RestoreState loads a persisted accumulation into a freshly constructed
// Chunked. The graph and source list must match the ones the state was
// encoded under; dimension mismatches are reported as corruption.
func (c *Chunked) RestoreState(d *snapshot.Decoder) error {
	d.Version("bc: chunked state", chunkedStateVersion)
	done := d.I64()
	relax := d.I64()
	scores := d.F64s()
	if err := d.Err(); err != nil {
		return err
	}
	if done < 0 || done > int64(len(c.sources)) {
		return snapshot.Corruptf("bc: chunked state: %d sources done of %d", done, len(c.sources))
	}
	if len(scores) != len(c.scores) {
		return snapshot.Corruptf("bc: chunked state: %d scores for %d vertices", len(scores), len(c.scores))
	}
	c.done = int(done)
	c.relax = relax
	copy(c.scores, scores)
	return nil
}
