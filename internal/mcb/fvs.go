package mcb

import (
	"repro/internal/graph"
)

// FeedbackVertexSet returns a small set of vertices hitting every cycle of
// g, used to restrict the Horton cycle roots (Section 3.2: "the Horton
// cycles of G with respect to a feedback vertex set of V(G) suffices").
//
// The routine is the classic degree-greedy heuristic in the spirit of the
// 2-approximation of Bafna, Berman and Fujito [3]: iteratively peel
// vertices of degree ≤ 1 (they lie on no cycle), then move the highest
// remaining degree vertex into the FVS and delete it, until the remainder
// is a forest. Any FVS keeps the MCB algorithms exact — the set's size only
// affects how many shortest path trees the processing phase builds — so
// approximation quality is a performance knob, not a correctness one.
func FeedbackVertexSet(g *graph.Graph) []int32 {
	n := g.NumVertices()
	deg := make([]int32, n)
	alive := make([]bool, n)
	aliveEdges := 0
	selfLoop := make([]bool, n)
	for v := int32(0); v < int32(n); v++ {
		alive[v] = true
	}
	for _, e := range g.Edges() {
		if e.U == e.V {
			selfLoop[e.U] = true
			continue
		}
		deg[e.U]++
		deg[e.V]++
		aliveEdges++
	}
	var fvs []int32
	// Vertices with self-loops must be in every FVS.
	for v := int32(0); v < int32(n); v++ {
		if selfLoop[v] && alive[v] {
			fvs = append(fvs, v)
			aliveEdges -= removeVertex(g, v, alive, deg)
		}
	}
	queue := make([]int32, 0, n)
	enqueueLeaves := func() {
		queue = queue[:0]
		for v := int32(0); v < int32(n); v++ {
			if alive[v] && deg[v] <= 1 {
				queue = append(queue, v)
			}
		}
	}
	peel := func() {
		adjNode := g.AdjNode()
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			if !alive[v] || deg[v] > 1 {
				continue
			}
			alive[v] = false
			lo, hi := g.AdjacencyRange(v)
			for i := lo; i < hi; i++ {
				u := adjNode[i]
				if u == v || !alive[u] {
					continue
				}
				deg[u]--
				deg[v]--
				aliveEdges--
				if deg[u] <= 1 {
					queue = append(queue, u)
				}
			}
		}
	}
	enqueueLeaves()
	peel()
	aliveCount := 0
	for v := int32(0); v < int32(n); v++ {
		if alive[v] {
			aliveCount++
		}
	}
	for aliveEdges >= aliveCount && aliveCount > 0 {
		// The remainder still contains a cycle (m ≥ n on the live part):
		// take the max-degree vertex.
		best := int32(-1)
		for v := int32(0); v < int32(n); v++ {
			if alive[v] && (best < 0 || deg[v] > deg[best]) {
				best = v
			}
		}
		if best < 0 || deg[best] < 2 {
			break
		}
		fvs = append(fvs, best)
		aliveEdges -= removeVertex(g, best, alive, deg)
		aliveCount--
		enqueueLeaves()
		before := countAlive(alive)
		peel()
		aliveCount -= before - countAlive(alive)
	}
	return fvs
}

func countAlive(alive []bool) int {
	c := 0
	for _, a := range alive {
		if a {
			c++
		}
	}
	return c
}

// removeVertex deletes v from the live graph, returning how many live
// non-loop edges were removed.
func removeVertex(g *graph.Graph, v int32, alive []bool, deg []int32) int {
	if !alive[v] {
		return 0
	}
	alive[v] = false
	removed := 0
	adjNode := g.AdjNode()
	lo, hi := g.AdjacencyRange(v)
	for i := lo; i < hi; i++ {
		u := adjNode[i]
		if u == v || !alive[u] {
			continue
		}
		deg[u]--
		deg[v]--
		removed++
	}
	return removed
}
