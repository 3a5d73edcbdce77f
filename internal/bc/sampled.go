package bc

import "repro/internal/graph"

// Sampled estimates betweenness centrality from k uniformly sampled
// Brandes sources (Brandes & Pich): each source's dependencies are scaled
// by n/k, giving an unbiased estimator whose error vanishes as k → n.
// For k ≥ n the exact computation is performed instead.
//
// Sampling composes with everything else in this package — the sampled
// sources are ordinary work-units (a Chunked over SampledSources run to
// completion), so large graphs can trade accuracy for a k/n fraction of
// the full cost while keeping the parallel structure.
func Sampled(g *graph.Graph, k int, seed uint64, workers int) *Result {
	sources, scale := SampledSources(g.NumVertices(), k, seed)
	return NewChunked(g, sources, scale, workers).finish()
}
