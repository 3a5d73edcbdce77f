// Package sssp implements the single-source shortest path kernels the APSP
// and MCB engines run per source: classic Dijkstra with an indexed heap
// (the CPU kernel, Section 2.1.2), a frontier-relaxation kernel in the
// style of Harish & Narayanan's GPU implementation (the simulated-GPU
// kernel), and a Bellman–Ford reference used only for verification.
package sssp

import (
	"math"

	"repro/internal/ds"
	"repro/internal/graph"
)

// Inf is the distance reported for unreachable vertices.
const Inf = math.MaxFloat64

// Result holds a shortest path tree from one source.
type Result struct {
	Source int32
	Dist   []graph.Weight
	// Parent[v] is v's predecessor on a shortest path, -1 for the source
	// and unreachable vertices. ParentEdge[v] is the corresponding edge ID.
	Parent     []int32
	ParentEdge []int32
	// Relaxations counts edge relaxation attempts; the heterogeneous
	// scheduler uses it as the work measure for its virtual clock.
	Relaxations int64
}

// Scratch holds the per-goroutine reusable state for repeated Dijkstra runs
// (one Scratch per worker; runs from different sources reuse it without
// reallocating).
type Scratch struct {
	heap    *ds.IndexedHeap
	n       int
	covered []bool // RowBounded's per-vertex flags, made on its first run
}

// NewScratch returns scratch space for graphs of at most n vertices.
func NewScratch(n int) *Scratch {
	return &Scratch{heap: ds.NewIndexedHeap(n), n: n}
}

// Dijkstra computes shortest paths from source using the indexed heap.
// The caller may pass a Scratch to amortise allocations; nil allocates.
func Dijkstra(g *graph.Graph, source int32, sc *Scratch) *Result {
	n := g.NumVertices()
	if sc == nil || sc.n < n {
		sc = NewScratch(n)
	}
	res := &Result{
		Source:     source,
		Dist:       make([]graph.Weight, n),
		Parent:     make([]int32, n),
		ParentEdge: make([]int32, n),
	}
	for i := 0; i < n; i++ {
		res.Dist[i] = Inf
		res.Parent[i] = -1
		res.ParentEdge[i] = -1
	}
	h := sc.heap
	h.Reset()
	res.Dist[source] = 0
	h.Push(source, 0)
	adjStart, adjNode, adjEdge, adjW := g.AdjStart(), g.AdjNode(), g.AdjEdge(), g.AdjWeight()
	dist := res.Dist
	for h.Len() > 0 {
		v, dv := h.Pop()
		lo, hi := adjStart[v], adjStart[v+1]
		res.Relaxations += int64(hi - lo)
		for i := lo; i < hi; i++ {
			u := adjNode[i]
			if nd := dv + adjW[i]; nd < dist[u] {
				dist[u] = nd
				res.Parent[u] = v
				res.ParentEdge[u] = adjEdge[i]
				h.PushOrDecrease(u, nd)
			}
		}
	}
	return res
}

// DistancesOnly runs Dijkstra writing distances into dist (len ≥ n),
// skipping tree bookkeeping — the hot path of the APSP processing phase.
// It returns the relaxation count.
func DistancesOnly(g *graph.Graph, source int32, dist []graph.Weight, sc *Scratch) int64 {
	n := g.NumVertices()
	if sc == nil || sc.n < n {
		sc = NewScratch(n)
	}
	for i := 0; i < n; i++ {
		dist[i] = Inf
	}
	h := sc.heap
	h.Reset()
	dist[source] = 0
	h.Push(source, 0)
	adjStart, adjNode, adjW := g.AdjStart(), g.AdjNode(), g.AdjWeight()
	var relax int64
	for h.Len() > 0 {
		v, dv := h.Pop()
		lo, hi := adjStart[v], adjStart[v+1]
		relax += int64(hi - lo)
		for i := lo; i < hi; i++ {
			u := adjNode[i]
			if nd := dv + adjW[i]; nd < dist[u] {
				dist[u] = nd
				h.PushOrDecrease(u, nd)
			}
		}
	}
	return relax
}

// RowBounded is DistancesOnly for row source of the n×n row-major table,
// stopping at the rows finished[v] marks as final: a popped vertex v ≠
// source with a finished row is not expanded; its row is merged instead
// (table[source][x] = min(table[source][x], d + table[v][x])), and every
// vertex the merge reaches at or below its current distance is covered and
// never expanded. A relaxation that lowers a vertex's distance uncovers it.
// The first finished vertex on a shortest path is popped at its distance,
// so the row is exact on integral weights; on float weights a merged sum
// may differ from Dijkstra's in the last bits. It returns the relaxations
// plus n per merged row.
func RowBounded(g *graph.Graph, source int32, table []graph.Weight, finished []bool, sc *Scratch) int64 {
	n := g.NumVertices()
	if sc == nil || sc.n < n {
		sc = NewScratch(n)
	}
	if len(sc.covered) < n {
		sc.covered = make([]bool, n)
	}
	dist, covered := table[int(source)*n:][:n], sc.covered[:n]
	for i := range dist {
		dist[i] = Inf
		covered[i] = false
	}
	h := sc.heap
	h.Reset()
	dist[source] = 0
	h.Push(source, 0)
	adjStart, adjNode, adjW := g.AdjStart(), g.AdjNode(), g.AdjWeight()
	var relax int64
	for h.Len() > 0 {
		v, dv := h.Pop()
		if covered[v] {
			continue
		}
		if finished[v] && v != source {
			for x, d := range table[int(v)*n:][:n] {
				if nd := dv + d; nd <= dist[x] {
					dist[x] = nd
					covered[x] = true
				}
			}
			relax += int64(n)
			continue
		}
		lo, hi := adjStart[v], adjStart[v+1]
		relax += int64(hi - lo)
		for i := lo; i < hi; i++ {
			u := adjNode[i]
			if nd := dv + adjW[i]; nd < dist[u] {
				dist[u] = nd
				covered[u] = false
				h.PushOrDecrease(u, nd)
			}
		}
	}
	return relax
}

// BellmanFord is the O(nm) reference implementation used by tests to
// validate every other shortest-path kernel.
func BellmanFord(g *graph.Graph, source int32) []graph.Weight {
	n := g.NumVertices()
	dist := make([]graph.Weight, n)
	for i := range dist {
		dist[i] = Inf
	}
	dist[source] = 0
	for iter := 0; iter < n; iter++ {
		changed := false
		for _, e := range g.Edges() {
			if dist[e.U] != Inf && dist[e.U]+e.W < dist[e.V] {
				dist[e.V] = dist[e.U] + e.W
				changed = true
			}
			if dist[e.V] != Inf && dist[e.V]+e.W < dist[e.U] {
				dist[e.U] = dist[e.V] + e.W
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return dist
}

// UnitWeights reports whether every edge has weight exactly 1, the
// hop-count case where a BFS forward pass replaces Dijkstra (internal/bc).
func UnitWeights(g *graph.Graph) bool {
	for _, e := range g.Edges() {
		if e.W != 1 {
			return false
		}
	}
	return true
}
