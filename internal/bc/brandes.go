// Package bc implements betweenness centrality. The paper's conclusion
// points at path-based computations beyond APSP/MCB as targets for the
// same ear/heterogeneous machinery, and the authors' companion work
// (Pachorkar et al., HiPC 2016; Sariyuce et al. [34]) computes betweenness
// centrality with exactly the per-source parallel structure used here:
// each work-unit is one source's Brandes dependency accumulation, spread
// over the CPU/GPU work queue.
//
// The implementation is the weighted Brandes algorithm: a Dijkstra-like
// forward phase recording predecessor DAG and path counts, and a reverse
// dependency accumulation. Parallel edges are supported (each parallel
// shortest edge contributes its own path); self-loops never lie on
// shortest paths and are ignored.
package bc

import (
	"math"

	"repro/internal/ds"
	"repro/internal/graph"
)

// Result holds centrality scores.
type Result struct {
	// Scores[v] is the betweenness centrality of v: the sum over vertex
	// pairs (s,t), s≠v≠t, of the fraction of shortest s–t paths through v.
	// Each unordered pair is counted twice (once per direction), the usual
	// convention for undirected Brandes; divide by 2 for per-pair values.
	Scores []float64
	// Relaxations is the forward-phase work, the device-model cost
	// measure.
	Relaxations int64
}

// state is the per-worker scratch for one source's Brandes pass, plain or
// block-weighted (decomposed.go).
type state struct {
	dist  []graph.Weight
	sigma []float64
	delta []float64
	preds [][]int32 // predecessor lists in the shortest path DAG
	order []int32   // vertices in non-decreasing settled order
	heap  *ds.IndexedHeap
}

func newState(n int) *state {
	return &state{
		dist:  make([]graph.Weight, n),
		sigma: make([]float64, n),
		delta: make([]float64, n),
		preds: make([][]int32, n),
		order: make([]int32, 0, n),
		heap:  ds.NewIndexedHeap(n),
	}
}

// forwardBFS is the unit-weight fast path of forward: a plain BFS
// (O(n+m), no heap), with identical σ/predecessor bookkeeping.
func (st *state) forwardBFS(g *graph.Graph, s int32) int64 {
	st.reset(g.NumVertices(), s)
	st.order = append(st.order, s)
	adjNode := g.AdjNode()
	var relax int64
	for qi := 0; qi < len(st.order); qi++ {
		v := st.order[qi]
		dv := st.dist[v]
		lo, hi := g.AdjacencyRange(v)
		for i := lo; i < hi; i++ {
			u := adjNode[i]
			if u == v {
				continue
			}
			relax++
			switch {
			case st.dist[u] >= inf:
				st.dist[u] = dv + 1
				st.sigma[u] = st.sigma[v]
				st.preds[u] = append(st.preds[u][:0], v)
				st.order = append(st.order, u)
			case st.dist[u] == dv+1:
				st.sigma[u] += st.sigma[v]
				st.preds[u] = append(st.preds[u], v)
			}
		}
	}
	return relax
}

// reset clears the first n entries for a pass from s.
func (st *state) reset(n int, s int32) {
	for i := 0; i < n; i++ {
		st.dist[i] = inf
		st.sigma[i] = 0
		st.delta[i] = 0
		st.preds[i] = st.preds[i][:0]
	}
	st.order = st.order[:0]
	st.dist[s] = 0
	st.sigma[s] = 1
}

// forward is the weighted forward phase: a Dijkstra from s that leaves
// the settled order, path counts and predecessor DAG in st. It returns
// the relaxation count.
func (st *state) forward(g *graph.Graph, s int32) int64 {
	st.reset(g.NumVertices(), s)
	st.heap.Reset()
	st.heap.Push(s, 0)
	adjStart, adjNode, adjW := g.AdjStart(), g.AdjNode(), g.AdjWeight()
	var relax int64
	for st.heap.Len() > 0 {
		v, dv := st.heap.Pop()
		st.order = append(st.order, v)
		for i, hi := adjStart[v], adjStart[v+1]; i < hi; i++ {
			u := adjNode[i]
			if u == v {
				continue // self-loop
			}
			relax++
			nd := dv + adjW[i]
			switch {
			case nd < st.dist[u]:
				st.dist[u] = nd
				st.sigma[u] = st.sigma[v]
				st.preds[u] = append(st.preds[u][:0], v)
				st.heap.PushOrDecrease(u, nd)
			case nd == st.dist[u]:
				st.sigma[u] += st.sigma[v]
				st.preds[u] = append(st.preds[u], v)
			}
		}
	}
	return relax
}

// source runs one Brandes pass from s, accumulating into acc (caller
// synchronises). It returns the relaxation count.
func (st *state) source(g *graph.Graph, s int32, acc []float64) int64 {
	relax := st.forward(g, s)
	st.accumulate(s, acc, nil, nil)
	return relax
}

// accumulate is the dependency phase of the pass from s that the forward
// phase left in st: it walks the settled order backwards and adds each
// vertex's dependency into acc. weights, when non-nil, are per-vertex
// source/target weights — the source's multiplies its dependencies and a
// target's enters its own (decomposed.go) — and nil means every weight
// is 1, which leaves each term (1+δ)/σ and 1·δ bit-identical to the
// unweighted pass. toParent, when non-nil, maps st's vertices to acc's.
func (st *state) accumulate(s int32, acc, weights []float64, toParent []int32) {
	ws := 1.0
	if weights != nil {
		ws = weights[s]
	}
	for i := len(st.order) - 1; i >= 0; i-- {
		w := st.order[i]
		wt := 1.0
		if weights != nil {
			wt = weights[w]
		}
		coef := (wt + st.delta[w]) / st.sigma[w]
		for _, v := range st.preds[w] {
			st.delta[v] += st.sigma[v] * coef
		}
		if w == s {
			continue
		}
		if toParent != nil {
			acc[toParent[w]] += ws * st.delta[w]
		} else {
			acc[w] += ws * st.delta[w]
		}
	}
}

const inf = graph.Weight(math.MaxFloat64)

// Accumulator returns the single-source Brandes pass over g, for a caller
// that schedules the sources itself: each call runs the weighted forward
// and dependency phases from s, adds the dependencies into acc and
// returns the forward phase's relaxations. The calls share one scratch
// state, so they must not run concurrently.
func Accumulator(g *graph.Graph, acc []float64) func(s int32) int64 {
	st := newState(g.NumVertices())
	return func(s int32) int64 { return st.source(g, s, acc) }
}

// Parallel computes exact betweenness centrality with the given number of
// goroutine workers, one Brandes source per work item: a Chunked over
// AllSources run to completion. Unit-weight graphs automatically take the
// BFS forward phase instead of Dijkstra.
func Parallel(g *graph.Graph, workers int) *Result {
	return NewChunked(g, AllSources(g.NumVertices()), 1, workers).finish()
}

// TopK returns the k vertices with the highest centrality, ties broken by
// vertex ID, without sorting the full score vector; k < 0 returns none.
func (r *Result) TopK(k int) []int32 {
	n := len(r.Scores)
	k = min(max(k, 0), n)
	out := make([]int32, 0, k)
	used := make([]bool, n)
	for len(out) < k {
		best := int32(-1)
		for v := 0; v < n; v++ {
			if used[v] {
				continue
			}
			if best < 0 || r.Scores[v] > r.Scores[best] {
				best = int32(v)
			}
		}
		used[best] = true
		out = append(out, best)
	}
	return out
}
