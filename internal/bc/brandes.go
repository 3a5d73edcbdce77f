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
	"repro/internal/par"
	"repro/internal/sssp"
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

// sourceBFS is the unit-weight fast path of source: the forward phase is a
// plain BFS (O(n+m), no heap), with identical σ/predecessor bookkeeping.
func (st *state) sourceBFS(g *graph.Graph, s int32, acc []float64) int64 {
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
	for i := len(st.order) - 1; i >= 0; i-- {
		w := st.order[i]
		coef := (1 + st.delta[w]) / st.sigma[w]
		for _, v := range st.preds[w] {
			st.delta[v] += st.sigma[v] * coef
		}
		if w != s {
			acc[w] += st.delta[w]
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

// forward is the weighted forward phase both accumulations share: a
// Dijkstra from s that leaves the settled order, path counts and
// predecessor DAG in st. It returns the relaxation count.
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
	for i := len(st.order) - 1; i >= 0; i-- {
		w := st.order[i]
		coef := (1 + st.delta[w]) / st.sigma[w]
		for _, v := range st.preds[w] {
			st.delta[v] += st.sigma[v] * coef
		}
		if w != s {
			acc[w] += st.delta[w]
		}
	}
	return relax
}

const inf = graph.Weight(math.MaxFloat64)

// Parallel computes exact betweenness centrality with the given number of
// goroutine workers, one Brandes source per work item. Unit-weight graphs
// automatically take the BFS forward phase instead of Dijkstra.
func Parallel(g *graph.Graph, workers int) *Result {
	n := g.NumVertices()
	if workers < 1 {
		workers = 1
	}
	unit := sssp.UnitWeights(g)
	states := make([]*state, workers)
	accs := make([][]float64, workers)
	relax := make([]int64, workers)
	for w := range states {
		states[w] = newState(n)
		accs[w] = make([]float64, n)
	}
	par.ParallelFor(workers, n, func(w, s int) {
		if unit {
			relax[w] += states[w].sourceBFS(g, int32(s), accs[w])
		} else {
			relax[w] += states[w].source(g, int32(s), accs[w])
		}
	})
	res := &Result{Scores: make([]float64, n)}
	for w := range accs {
		for v, x := range accs[w] {
			res.Scores[v] += x
		}
		res.Relaxations += relax[w]
	}
	return res
}

// TopK returns the k vertices with the highest centrality, ties broken by
// vertex ID, without sorting the full score vector.
func (r *Result) TopK(k int) []int32 {
	n := len(r.Scores)
	if k > n {
		k = n
	}
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
