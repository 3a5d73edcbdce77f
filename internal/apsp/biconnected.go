// Package apsp implements the paper's all-pairs shortest path algorithms:
// the ear-decomposition approach of Section 2 (Algorithm 1 for biconnected
// graphs, the block-cut tree extension of Section 2.2 for general graphs)
// and the three comparison baselines of Section 2.4.3 (plain per-source
// Dijkstra, the Banerjee et al. BCC approach, and the Djidjev et al.
// partition approach).
//
// Panic-free query contract: once an oracle is built, its query surface
// (Query, QueryChecked, Path, PathChecked, Row) never panics
// on any input and never mutates oracle state — invalid vertex IDs surface
// as *QueryError from the *Checked variants (or nil/Inf from the unchecked
// ones), and every method is safe for concurrent callers. Long-lived
// serving processes (cmd/oracled) depend on both properties.
package apsp

import (
	"context"
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
	G   *graph.Graph
	Red *ear.Reduced
	// SR is the nr×nr row-major distance table over reduced vertices
	// (S^r[s,t] in the paper).
	SR []graph.Weight
	nr int
	// Relaxations is the total work of the processing phase, the work
	// measure the virtual-clock devices charge: the Dijkstra relaxations
	// of the searched sources on R less the arcs already proven to lie
	// on no shortest path, plus nr per live non-loop arc of each
	// assembled source (one min-plus update per arc and target; see fill).
	Relaxations int64
}

// newEarAPSP is the start every constructor shares: Phase I of
// Algorithm 1 (ear reduction; a nil red asks for it) and the empty nr×nr
// table S^r the processing phase then fills.
func newEarAPSP(g *graph.Graph, red *ear.Reduced) *EarAPSP {
	if red == nil {
		red = ear.Reduce(g, ear.APSP)
	}
	nr := red.R.NumVertices()
	return &EarAPSP{G: g, Red: red, nr: nr, SR: make([]graph.Weight, nr*nr)}
}

// The processing phase's schedule constants. They are not options: the
// schedule, and with it Relaxations, depends on R alone.
const (
	searchBatch  = 32  // Dijkstra sources per batch
	triangleRows = 128 // searched rows per table that run the triangle check
)

// fillDijkstra is the processing phase on real workers: it fills S^r
// with fill's search-or-assemble schedule and sets Relaxations. It stops
// early — with no usable table — once ctx is done.
func (a *EarAPSP) fillDijkstra(ctx context.Context, workers int) (err error) {
	a.Relaxations, err = newFill(a.Red.R, a.SR).run(ctx, workers)
	return err
}

// Row states of a fill.
const (
	undone uint8 = iota
	searched
	assembled
)

// fill is one processing phase between its batches. It searches sources
// in batches of searchBatch on live, R less the arcs a finished row has
// proven to lie on no shortest path, and assembles every row whose live
// arcs all lead to finished rows from those rows instead. Arc (u,v,w)
// lies on no shortest path when d(u,v) < w (an arc on one has w = d(u,v)),
// so dropping it changes no distance; a finished row of s proves that
//   - of s's own arcs (s,v,w) with row_s[v] < w, for every finished row;
//   - of any edge (u,v,w) with row_s[u] + row_s[v] < w (the triangle
//     check), for the first triangleRows searched rows.
//
// The sources outside an independent set I of live, taken lowest degree
// first, are searched highest degree first; I only grows (pruning only
// removes arcs, so I stays independent), and each member is assembled
// once its neighbours are done. Every decision is made between batches
// from row contents and R, so the table and Relaxations do not depend on
// the worker count.
type fill struct {
	r    *graph.Graph
	nr   int
	sr   []graph.Weight
	dead []bool       // per edge of r: lies on no shortest path
	live *graph.Graph // r without its dead edges; its arrays are compacted in place
	done []uint8      // per vertex: undone, searched or assembled
	inI  []bool
	// pending counts an undone vertex's live non-loop arcs to undone rows.
	pending       []int32
	ready         []int32 // undone vertices whose pending reached 0
	low, high     []int32 // vertices by non-loop degree in R, up / down, ties by ID
	assembledArcs int64   // live non-loop arcs of the assembled rows
}

// newFill readies the fill of the nr×nr table sr over r.
func newFill(r *graph.Graph, sr []graph.Weight) *fill {
	nr := r.NumVertices()
	adjStart, adjNode, adjEdge := r.AdjStart(), r.AdjNode(), r.AdjEdge()
	ints := make([]int32, 5*nr+1)
	f := &fill{
		r: r, nr: nr, sr: sr,
		dead:    make([]bool, r.NumEdges()),
		done:    make([]uint8, nr),
		inI:     make([]bool, nr),
		pending: ints[:nr:nr], low: ints[nr : 2*nr : 2*nr], high: ints[2*nr : 2*nr : 3*nr],
		ready: ints[3*nr : 3*nr : 4*nr], // a vertex turns ready once
	}
	arcs := len(adjNode)
	ids := make([]int32, 2*arcs)
	f.live = graph.FromCSR(append(ints[4*nr:4*nr], adjStart...), append(ids[:0:arcs], adjNode...),
		append(ids[arcs:arcs], adjEdge...), slices.Clone(r.AdjWeight()))
	var maxDeg int32
	for v := range nr {
		for _, u := range adjNode[adjStart[v]:adjStart[v+1]] {
			if int(u) != v {
				f.pending[v]++
			}
		}
		if f.pending[v] == 0 {
			f.ready = append(f.ready, int32(v))
		}
		maxDeg = max(maxDeg, f.pending[v])
	}
	// One bucket pass orders both ways: next[d] ends bucket d once filled.
	next := make([]int32, maxDeg+2)
	for _, d := range f.pending {
		next[d+1]++
	}
	for d := 1; d < len(next); d++ {
		next[d] += next[d-1]
	}
	for v, d := range f.pending {
		f.low[next[d]] = int32(v)
		next[d]++
	}
	for d := maxDeg; d >= 0; d-- {
		lo := int32(0)
		if d > 0 {
			lo = next[d-1]
		}
		f.high = append(f.high, f.low[lo:next[d]]...)
	}
	return f
}

func (f *fill) row(s int32) []graph.Weight { return f.sr[int(s)*f.nr:][:f.nr] }

// run fills the table: between batches it assembles the ready rows, grows
// I, and takes the next batch of undone sources outside I, highest degree
// first. Its three parallel bodies are made once, so its allocations do
// not grow with its batches. It returns the work (see
// EarAPSP.Relaxations).
func (f *fill) run(ctx context.Context, workers int) (int64, error) {
	workers = max(workers, 1)
	scratch := make([]*sssp.Scratch, workers)
	relax := make([]int64, workers)
	for i := range scratch {
		scratch[i] = sssp.NewScratch(f.nr)
	}
	var rows []int32 // what the next parallel pass works on
	search := func(w, i int) { relax[w] += sssp.DistancesOnly(f.live, rows[i], f.row(rows[i]), scratch[w]) }
	assemble := func(_, i int) { f.assemble(rows[i]) }
	chunk := (f.r.NumEdges() + workers - 1) / workers
	triangle := func(_, c int) { f.triangle(rows, c*chunk, (c+1)*chunk) }
	batch := make([]int32, 0, searchBatch)
	for next, nSearched := 0, 0; ; {
		if rows = f.ready; len(rows) > 0 {
			if err := par.ParallelForCtx(ctx, workers, len(rows), assemble); err != nil {
				return 0, err
			}
			f.finish(rows, assembled) // every live neighbour is done: nothing turns ready
			f.ready = rows[:0]
		}
		f.grow()
		rows = batch[:0]
		for ; next < f.nr && len(rows) < searchBatch; next++ {
			if s := f.high[next]; f.done[s] == undone && !f.inI[s] {
				rows = append(rows, s)
			}
		}
		if len(rows) == 0 {
			break // every undone row was in I, and so ready
		}
		if err := par.ParallelForCtx(ctx, workers, len(rows), search); err != nil {
			return 0, err
		}
		f.finish(rows, searched)
		k := min(len(rows), triangleRows-nSearched)
		if nSearched += len(rows); k > 0 {
			rows = rows[:k]
			if err := par.ParallelForCtx(ctx, workers, workers, triangle); err != nil {
				return 0, err
			}
		}
		f.compact()
	}
	total := f.assembledArcs * int64(f.nr) // one min-plus update per arc and target
	for _, k := range relax {
		total += k
	}
	return total, nil
}

// finish marks rows done as state: it counts them off their live
// neighbours' pending, making ready the undone neighbours left with
// none, and marks dead each row's own arcs it proves non-essential.
func (f *fill) finish(rows []int32, state uint8) {
	for _, s := range rows {
		f.done[s] = state
	}
	start, node, edge, w := f.live.AdjStart(), f.live.AdjNode(), f.live.AdjEdge(), f.live.AdjWeight()
	for _, s := range rows {
		row := f.row(s)
		for j := start[s]; j < start[s+1]; j++ {
			v := node[j]
			if beats(row[v], w[j]) {
				f.dead[edge[j]] = true
			}
			if v == s {
				continue
			}
			if state == assembled {
				f.assembledArcs++
			}
			if f.done[v] == undone {
				f.unpend(v)
			}
		}
	}
}

// unpend counts one arc off the undone v's pending; v is ready once none
// is left.
func (f *fill) unpend(v int32) {
	if f.pending[v]--; f.pending[v] == 0 {
		f.ready = append(f.ready, v)
	}
}

// assemble fills the ready row s from its neighbours' rows: row(s)[x] =
// min over live non-loop arcs (s,u,w) of w + row(u)[x], and row(s)[s] =
// 0. A shortest path from s to x ≠ s leaves s along a live arc, and every
// live neighbour of s is done, so every row it reads is final; two ready
// rows are never live neighbours, so none reads another.
func (f *fill) assemble(s int32) {
	start, node, w := f.live.AdjStart(), f.live.AdjNode(), f.live.AdjWeight()
	row := f.row(s)
	for x := range row {
		row[x] = Inf
	}
	for j := start[s]; j < start[s+1]; j++ {
		if u := node[j]; u != s {
			ru, wj := f.row(u), w[j]
			for x := range row {
				row[x] = min(row[x], wj+ru[x])
			}
		}
	}
	row[s] = 0
}

// grow adds to I, lowest degree first, every undone vertex with no live
// neighbour in I.
func (f *fill) grow() {
	start, node := f.live.AdjStart(), f.live.AdjNode()
	for _, v := range f.low {
		if f.done[v] == undone && !f.inI[v] {
			f.inI[v] = !slices.ContainsFunc(node[start[v]:start[v+1]], func(u int32) bool { return f.inI[u] })
		}
	}
}

// triangle marks dead every live edge (u,v,w) of r's edges [lo, hi) with
// row_s[u] + row_s[v] < w for a row s of rows. Each worker takes its own
// chunk of edges, so each mark has one writer.
func (f *fill) triangle(rows []int32, lo, hi int) {
	edges := f.r.Edges()
	lo, hi = min(lo, len(edges)), min(hi, len(edges))
	dead := f.dead[lo:hi]
	for _, s := range rows {
		row := f.row(s)
		for i, e := range edges[lo:hi] {
			if !dead[i] && beats(row[e.U]+row[e.V], e.W) {
				dead[i] = true
			}
		}
	}
}

// beats reports whether a path of computed length d proves an arc of
// weight w non-essential: d < w by more than float rounding along the
// path could explain (a relative 1e-9, which on integral weights below
// 1e9 is exactly d < w).
func beats(d, w graph.Weight) bool { return d < w*(1-1e-9) }

// compact drops the dead edges' arcs from live in place, counting each
// dropped arc between undone rows off its tail's pending.
func (f *fill) compact() {
	start, node, edge, w := f.live.AdjStart(), f.live.AdjNode(), f.live.AdjEdge(), f.live.AdjWeight()
	var lo, k int32
	for v := range int32(f.nr) {
		hi := start[v+1]
		start[v] = k
		for j := lo; j < hi; j++ {
			if !f.dead[edge[j]] {
				node[k], edge[k], w[k] = node[j], edge[j], w[j]
				k++
				continue
			}
			if u := node[j]; u != v && f.done[u] == undone && f.done[v] == undone {
				f.unpend(v)
			}
		}
		lo = hi
	}
	start[f.nr] = k
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

// srAt returns S^r between two reduced IDs.
func (a *EarAPSP) srAt(x, y int32) graph.Weight { return a.SR[int(x)*a.nr+int(y)] }

// Query returns the shortest-path distance between any two original
// vertices, applying the Section 2.1.3 case analysis:
//
//   - both kept: S^r directly;
//   - one removed: min over its two anchors;
//   - both removed: min over the four anchor combinations, plus the direct
//     along-chain path when both lie on the same ear (including the
//     wrap-around on loop chains, which one of the four combinations
//     covers).
func (a *EarAPSP) Query(x, y int32) graph.Weight {
	if x < 0 || int(x) >= a.G.NumVertices() || y < 0 || int(y) >= a.G.NumVertices() {
		return Inf
	}
	if x == y {
		return 0
	}
	red := a.Red
	kx, ky := red.OrigToKept[x], red.OrigToKept[y]
	switch {
	case kx >= 0 && ky >= 0:
		return a.srAt(kx, ky)
	case kx >= 0:
		return a.queryKeptRemoved(kx, y)
	case ky >= 0:
		return a.queryKeptRemoved(ky, x)
	}
	// both removed
	ax, bx, dax, dbx := red.Anchors(x)
	ay, by, day, dby := red.Anchors(y)
	kax, kbx := red.OrigToKept[ax], red.OrigToKept[bx]
	kay, kby := red.OrigToKept[ay], red.OrigToKept[by]
	best := addInf(dax, a.srAt(kax, kay), day)
	best = min3(best, dax, a.srAt(kax, kby), dby)
	best = min3(best, dbx, a.srAt(kbx, kay), day)
	best = min3(best, dbx, a.srAt(kbx, kby), dby)
	if direct, _, ok := red.SameChain(x, y); ok && direct < best {
		best = direct
	}
	return best
}

// queryKeptRemoved computes d(v, x) for kept (reduced ID kv) and removed x.
func (a *EarAPSP) queryKeptRemoved(kv, x int32) graph.Weight {
	red := a.Red
	ax, bx, dax, dbx := red.Anchors(x)
	da := addInf(dax, a.srAt(red.OrigToKept[ax], kv), 0)
	db := addInf(dbx, a.srAt(red.OrigToKept[bx], kv), 0)
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
// measure).
func (a *EarAPSP) Row(x int32, out []graph.Weight) int64 {
	n := a.G.NumVertices()
	for y := 0; y < n; y++ {
		out[y] = a.Query(x, int32(y))
	}
	return int64(n)
}
