// Package apsp implements the paper's all-pairs shortest path algorithms:
// the ear-decomposition approach of Section 2 (Algorithm 1 for biconnected
// graphs, the block-cut tree extension of Section 2.2 for general graphs)
// and two of the comparison baselines of Section 2.4.3 (plain per-source
// Dijkstra and the Banerjee et al. BCC approach). The third, the Djidjev
// et al. partition approach, lives beside its Figure 2 caller in
// internal/exp.
//
// Panic-free query contract: once an oracle is built, its query surface
// (Query, QueryChecked, Path, PathChecked, Row) never panics
// on any input and never mutates oracle state — invalid vertex IDs surface
// as *QueryError from the *Checked variants (or nil/Inf from the unchecked
// ones), and every method is safe for concurrent callers. Long-lived
// serving processes (cmd/oracled) depend on both properties.
package apsp

import (
	"cmp"
	"context"
	"math"
	"slices"

	"repro/internal/ear"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/sssp"
)

// Inf is the distance between disconnected vertices.
const Inf = sssp.Inf

// EarAPSP is the result of Algorithm 1 on a connected graph: the reduced
// graph, the all-pairs table S^r over reduced vertices, and O(1) queries
// for arbitrary vertex pairs via the post-processing formulas of
// Section 2.1.3.
type EarAPSP struct {
	Red *ear.Reduced
	// sr is the symmetric nr×nr distance table over reduced vertices
	// (S^r[s,t] in the paper), as its upper triangle.
	sr table
	nr int
	// Relaxations is the total work of the processing phase, the work
	// measure the virtual-clock devices charge: the heap relaxations of
	// every source's row-bounded search on R, plus nr per finished row a
	// search merged (one min-plus update per target; see fillDijkstra).
	Relaxations int64
}

// newEarAPSP is the start every constructor shares: Phase I of
// Algorithm 1 (ear reduction; a nil red asks for it).
func newEarAPSP(g *graph.Graph, red *ear.Reduced) *EarAPSP {
	if red == nil {
		red = ear.Reduce(g, ear.APSP)
	}
	return &EarAPSP{Red: red, nr: red.R.NumVertices()}
}

// searchBatch is the number of sources searched between two points where
// their rows become readable. It is a constant, not an option: the table
// and Relaxations depend on R alone.
const searchBatch = 16

// fillDijkstra is the processing phase on real workers: it fills S^r
// with a row-bounded search from every source (sssp.RowBounded), highest
// non-loop degree first in batches of searchBatch, and sets Relaxations.
// A search stops at the rows finished in earlier batches and merges them
// instead; a row counts as finished only once its batch has ended, so the
// table and Relaxations do not depend on the worker count. The searches
// merge whole rows, so they fill a square; each row s's entries (s, t ≥ s)
// are then packed into S^r at the width they allow (packTable) and the
// square is dropped. It stops early —
// with no usable table — once ctx is done.
func (a *EarAPSP) fillDijkstra(ctx context.Context, workers int) error {
	r, nr := a.Red.R, a.nr
	workers = max(workers, 1)
	scratch := make([]*sssp.Scratch, workers)
	relax := make([]int64, workers)
	for i := range scratch {
		scratch[i] = sssp.NewScratch(nr)
	}
	order, finished, sq := byDegree(r), make([]bool, nr), make([]graph.Weight, nr*nr)
	var batch []int32
	search := func(w, i int) { relax[w] += sssp.RowBounded(r, batch[i], sq, finished, scratch[w]) }
	for lo := 0; lo < nr; lo += searchBatch {
		batch = order[lo:min(lo+searchBatch, nr)]
		if err := par.ParallelForCtx(ctx, workers, len(batch), search); err != nil {
			return err
		}
		for _, s := range batch {
			finished[s] = true
		}
	}
	for _, k := range relax {
		a.Relaxations += k
	}
	a.sr = packTable(sq, nr)
	return nil
}

// byDegree returns r's vertices by non-loop degree, highest first, ties by
// ID: the sources whose rows cut the most later searches short run first.
func byDegree(r *graph.Graph) []int32 {
	nr := r.NumVertices()
	adjStart, adjNode := r.AdjStart(), r.AdjNode()
	ints := make([]int32, 2*nr)
	deg, order := ints[:nr], ints[nr:]
	for v := range nr {
		order[v] = int32(v)
		for _, u := range adjNode[adjStart[v]:adjStart[v+1]] {
			if int(u) != v {
				deg[v]++
			}
		}
	}
	slices.SortStableFunc(order, func(u, v int32) int { return cmp.Compare(deg[v], deg[u]) })
	return order
}

// NewEarAPSP runs the three phases of Algorithm 1 sequentially on a
// connected graph g: Reduce, the S^r fill on G^r (fillDijkstra), and
// (lazily, at query time) UPDATE_DISTANCE.
func NewEarAPSP(g *graph.Graph) *EarAPSP { return NewEarAPSPParallel(g, 1) }

// NewEarAPSPParallel is NewEarAPSP with the processing phase spread over
// real goroutine workers.
func NewEarAPSPParallel(g *graph.Graph, workers int) *EarAPSP {
	a, _ := NewEarAPSPParallelCtx(context.Background(), g, workers)
	return a
}

// NewEarAPSPParallelCtx is NewEarAPSPParallel with cooperative
// cancellation: the processing phase stops claiming sources once ctx is
// done and the context error is returned with no (partial) result. With a
// background context it never fails.
func NewEarAPSPParallelCtx(ctx context.Context, g *graph.Graph, workers int) (*EarAPSP, error) {
	a := newEarAPSP(g, nil)
	if err := a.fillDijkstra(ctx, workers); err != nil {
		return nil, err
	}
	return a, nil
}

// srAt returns S^r between two reduced IDs, in either order.
func (a *EarAPSP) srAt(x, y int32) graph.Weight { return a.sr.at(triAt(x, y, a.nr)) }

// Query returns the shortest-path distance between any two original
// vertices, applying the Section 2.1.3 case analysis:
//
//   - both kept: S^r directly;
//   - one removed: min over its two anchors;
//   - both removed: min over the four anchor combinations, plus the direct
//     along-chain path when both lie on the same ear (including the
//     wrap-around on loop chains, which one of the four combinations
//     covers).
//
// It picks the table's type once and reads the typed triangle.
func (a *EarAPSP) Query(x, y int32) graph.Weight { return a.sr.query(a, x, y) }

func (sr tri[T]) query(a *EarAPSP, x, y int32) graph.Weight {
	if n := a.Red.N; x < 0 || int(x) >= n || y < 0 || int(y) >= n {
		return Inf
	}
	if x == y {
		return 0
	}
	red := a.Red
	kx, ky := red.OrigToKept[x], red.OrigToKept[y]
	switch {
	case kx >= 0 && ky >= 0:
		return sr.get(kx, ky, a.nr)
	case kx >= 0:
		return sr.keptRemoved(a, kx, y)
	case ky >= 0:
		return sr.keptRemoved(a, ky, x)
	}
	// both removed
	ax, bx, dax, dbx := red.Anchors(x)
	ay, by, day, dby := red.Anchors(y)
	kax, kbx := red.OrigToKept[ax], red.OrigToKept[bx]
	kay, kby := red.OrigToKept[ay], red.OrigToKept[by]
	nr := a.nr
	best := addInf(dax, sr.get(kax, kay, nr), day)
	best = min3(best, dax, sr.get(kax, kby, nr), dby)
	best = min3(best, dbx, sr.get(kbx, kay, nr), day)
	best = min3(best, dbx, sr.get(kbx, kby, nr), dby)
	if direct, ok := red.SameChain(x, y); ok && direct < best {
		best = direct
	}
	return best
}

// keptRemoved computes d(v, x) for kept (reduced ID kv) and removed x.
func (sr tri[T]) keptRemoved(a *EarAPSP, kv, x int32) graph.Weight {
	red := a.Red
	ax, bx, dax, dbx := red.Anchors(x)
	da := addInf(dax, sr.get(red.OrigToKept[ax], kv, a.nr), 0)
	db := addInf(dbx, sr.get(red.OrigToKept[bx], kv, a.nr), 0)
	if da < db {
		return da
	}
	return db
}

func addInf(a, b, c graph.Weight) graph.Weight {
	if a >= Inf || b >= Inf || c >= Inf {
		return Inf
	}
	return a + b + c
}

func min3(best, a, b, c graph.Weight) graph.Weight {
	if s := addInf(a, b, c); s < best {
		return s
	}
	return best
}

// Row writes the distances from source x to every vertex into out
// (len ≥ n) — one UPDATE_DISTANCE work-unit of the post-processing phase.
// It returns the number of table operations performed (the phase's work
// measure). It is one sweep over the kept vertices (x's S^r row, or the
// lower of its anchors' two) and one over the chains with an interior,
// each chain reading its anchors' distances from the first sweep. Every
// entry is Float64bits-equal to Query(x, y): S^r is one value per pair,
// and since rounding is monotone, a minimum over sums sharing an addend
// is that addend plus the minimum. Like Query, it picks the table's
// type once.
func (a *EarAPSP) Row(x int32, out []graph.Weight) int64 { return a.sr.row(a, x, out) }

func (sr tri[T]) row(a *EarAPSP, x int32, out []graph.Weight) int64 {
	n := a.Red.N
	out = out[:n]
	if x < 0 || int(x) >= n {
		for y := range out {
			out[y] = Inf
		}
		return int64(n)
	}
	red := a.Red
	if kx := red.OrigToKept[x]; kx >= 0 {
		sr.keptRow(a, kx, 0, out, false)
	} else {
		ax, bx, dax, dbx := red.Anchors(x)
		sr.keptRow(a, red.OrigToKept[ax], dax, out, false)
		sr.keptRow(a, red.OrigToKept[bx], dbx, out, true)
	}
	for ci, lo := range red.ChainStart[:len(red.ChainA)] {
		hi := red.ChainStart[ci+1]
		ea, eb, t := out[red.ChainA[ci]], out[red.ChainB[ci]], red.ChainTotal[ci] // kept anchors: d(x, ·) as Query reads it
		for j, p := range red.Prefix[lo:hi] {
			out[red.Interior[lo+int32(j)]] = min(addInf(ea, p, 0), addInf(eb, t-p, 0))
		}
	}
	if ci := red.ChainOf[x]; ci >= 0 { // the along-chain path between two removed vertices
		lo, hi, px := red.ChainStart[ci], red.ChainStart[ci+1], red.Prefix[red.PosOf[x]]
		for j, z := range red.Interior[lo:hi] {
			out[z] = min(out[z], math.Abs(red.Prefix[lo+int32(j)]-px))
		}
	}
	out[x] = 0
	return int64(n)
}

// keptRow writes d + S^r[k, j] at every kept vertex j's original ID in
// out, or lowers the entry there to it when lower is set. Row k of the
// triangle comes in two parts: S^r[j, k] for j < k, gathered down column
// k (row j+1's entry sits nr-j-1 after row j's), then the contiguous tail
// S^r[k, k..nr).
func (sr tri[T]) keptRow(a *EarAPSP, k int32, d graph.Weight, out []graph.Weight, lower bool) {
	orig, nr, i := a.Red.KeptToOrig, a.nr, int(k)
	for j, y := range orig[:k] {
		if s := addInf(d, graph.Weight(sr[i]), 0); !lower || s < out[y] {
			out[y] = s
		}
		i += nr - j - 1
	}
	for j, v := range sr[i:][:nr-int(k)] {
		if s, y := addInf(d, graph.Weight(v), 0), orig[int(k)+j]; !lower || s < out[y] {
			out[y] = s
		}
	}
}
