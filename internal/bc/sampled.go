package bc

import (
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/par"
)

// Sampled estimates betweenness centrality from k uniformly sampled
// Brandes sources (Brandes & Pich): each source's dependencies are scaled
// by n/k, giving an unbiased estimator whose error vanishes as k → n.
// For k ≥ n the exact computation is performed instead.
//
// Sampling composes with everything else in this package — the sampled
// sources are ordinary work-units, so large graphs can trade accuracy for
// a k/n fraction of the full cost while keeping the parallel structure.
func Sampled(g *graph.Graph, k int, seed uint64, workers int) *Result {
	n := g.NumVertices()
	if k >= n {
		return Parallel(g, workers)
	}
	if k < 1 {
		k = 1
	}
	if workers < 1 {
		workers = 1
	}
	rng := gen.NewRNG(seed)
	perm := rng.Perm(n)
	sources := perm[:k]

	states := make([]*state, workers)
	accs := make([][]float64, workers)
	relax := make([]int64, workers)
	for w := range states {
		states[w] = newState(n)
		accs[w] = make([]float64, n)
	}
	par.ParallelFor(workers, k, func(w, i int) {
		relax[w] += states[w].source(g, sources[i], accs[w])
	})
	scale := float64(n) / float64(k)
	res := &Result{Scores: make([]float64, n)}
	for w := range accs {
		for v, x := range accs[w] {
			res.Scores[v] += x * scale
		}
		res.Relaxations += relax[w]
	}
	return res
}
