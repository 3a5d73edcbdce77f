package sssp

import (
	"repro/internal/graph"
)

// FrontierSweeps is the GPU-structured kernel in the style of Harish &
// Narayanan (HiPC 2007), which the paper uses as its GPU Dijkstra
// (Section 2.1.2). Instead of a priority queue, it maintains a frontier and
// repeatedly relaxes all outgoing edges of frontier vertices into a shadow
// (updating) distance array, then commits the shadow and forms the next
// frontier — exactly the structure of the CUDA kernel pair (relax kernel +
// update kernel), with each frontier sweep corresponding to one grid
// launch. It returns the number of sweeps, the quantity the device model
// charges kernel launch overhead for.
//
// On a real GPU each frontier vertex maps to a thread; here the sweep is a
// plain loop. The result is exact, not approximate: the algorithm is a
// label-correcting variant that terminates when no distance changes.
func FrontierSweeps(g *graph.Graph, source int32) (res *Result, sweeps int) {
	n := g.NumVertices()
	res = &Result{Source: source, Dist: make([]graph.Weight, n), Parent: make([]int32, n), ParentEdge: make([]int32, n)}
	shadow := make([]graph.Weight, n)
	for i := 0; i < n; i++ {
		res.Dist[i] = Inf
		shadow[i] = Inf
		res.Parent[i] = -1
		res.ParentEdge[i] = -1
	}
	res.Dist[source] = 0
	shadow[source] = 0
	frontier := []int32{source}
	adjNode, adjEdge := g.AdjNode(), g.AdjEdge()
	edges := g.Edges()
	for len(frontier) > 0 {
		sweeps++
		for _, v := range frontier {
			dv := res.Dist[v]
			lo, hi := g.AdjacencyRange(v)
			for i := lo; i < hi; i++ {
				u, eid := adjNode[i], adjEdge[i]
				res.Relaxations++
				if nd := dv + edges[eid].W; nd < shadow[u] {
					shadow[u] = nd
					res.Parent[u] = v
					res.ParentEdge[u] = eid
				}
			}
		}
		next := frontier[:0]
		for v := int32(0); v < int32(n); v++ {
			if shadow[v] < res.Dist[v] {
				res.Dist[v] = shadow[v]
				next = append(next, v)
			}
		}
		frontier = next
	}
	return res, sweeps
}
