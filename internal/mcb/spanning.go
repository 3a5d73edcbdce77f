// Package mcb computes minimum weight cycle bases (Section 3 of the
// paper): the De Pina witness algorithm with Horton/isometric candidate
// cycles and Mehlhorn–Michail labelled-tree searches, on the original graph
// or — via Lemma 3.1 — on the ear-reduced graph with per-query expansion of
// the basis cycles. There is one solve, on a real goroutine pool; it
// records how much work each phase (label computation, minimum-cycle
// search, witness update) did, and Result.Price turns that log into the
// virtual seconds of the paper's sequential, multicore, GPU or
// heterogeneous implementation afterwards (price.go).
package mcb

import (
	"repro/internal/bitvec"
	"repro/internal/ds"
	"repro/internal/gen"
	"repro/internal/graph"
)

// spanning holds a spanning forest of the working graph and the induced
// witness coordinate system: the non-tree edges E' = {e_1..e_f}, so that
// cycles and witnesses are GF(2) vectors in {0,1}^f (Section 3.2).
type spanning struct {
	g *graph.Graph
	// isTree[e] marks spanning forest edges.
	isTree []bool
	// nontree lists E' in a fixed order; nontreeIndex[e] is an edge's
	// position in E', -1 for tree edges.
	nontree      []int32
	nontreeIndex []int32
	// parent/parentEdge/order: rooted forest structure for fundamental
	// cycle walks.
	parent     []int32
	parentEdge []int32
}

// buildSpanning constructs a spanning forest by union-find over edges in ID
// order (deterministic) and roots it by BFS.
func buildSpanning(g *graph.Graph) *spanning {
	n := g.NumVertices()
	m := g.NumEdges()
	s := &spanning{
		g:            g,
		isTree:       make([]bool, m),
		nontreeIndex: make([]int32, m),
		parent:       make([]int32, n),
		parentEdge:   make([]int32, n),
	}
	uf := ds.NewUnionFind(n)
	for id, e := range g.Edges() {
		if e.U != e.V && uf.Union(e.U, e.V) {
			s.isTree[id] = true
		}
	}
	for id := range s.nontreeIndex {
		if s.isTree[id] {
			s.nontreeIndex[id] = -1
		} else {
			s.nontreeIndex[id] = int32(len(s.nontree))
			s.nontree = append(s.nontree, int32(id))
		}
	}
	for v := range s.parent {
		s.parent[v] = -1
		s.parentEdge[v] = -1
	}
	// Root each component at its smallest vertex; BFS over tree edges.
	seen := make([]bool, n)
	adjNode, adjEdge := g.AdjNode(), g.AdjEdge()
	var queue []int32
	for r := int32(0); r < int32(n); r++ {
		if seen[r] {
			continue
		}
		seen[r] = true
		queue = append(queue[:0], r)
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			lo, hi := g.AdjacencyRange(v)
			for i := lo; i < hi; i++ {
				u, eid := adjNode[i], adjEdge[i]
				if !s.isTree[eid] || seen[u] {
					continue
				}
				seen[u] = true
				s.parent[u] = v
				s.parentEdge[u] = eid
				queue = append(queue, u)
			}
		}
	}
	return s
}

// dim returns f = |E'| = m − n + k, the cycle space dimension.
func (s *spanning) dim() int { return len(s.nontree) }

// vector returns the incidence vector of a cycle, given as edge IDs,
// restricted to E' — its coordinates in the witness space, which is all
// the independence tests of Algorithm 2 and of Horton's greedy read.
func (s *spanning) vector(edges []int32) *bitvec.Vector {
	v := bitvec.New(s.dim())
	for _, eid := range edges {
		if idx := s.nontreeIndex[eid]; idx >= 0 {
			v.Flip(int(idx))
		}
	}
	return v
}

// fundamentalCycle returns the edge IDs of the fundamental cycle of
// non-tree edge eid: the edge plus the tree path between its endpoints.
func (s *spanning) fundamentalCycle(eid int32) []int32 {
	e := s.g.Edge(eid)
	if e.U == e.V {
		return []int32{eid}
	}
	// Walk both endpoints to the root collecting paths, then cancel the
	// common suffix.
	var pu, pv []int32
	for x := e.U; s.parent[x] >= 0; x = s.parent[x] {
		pu = append(pu, s.parentEdge[x])
	}
	for x := e.V; s.parent[x] >= 0; x = s.parent[x] {
		pv = append(pv, s.parentEdge[x])
	}
	for len(pu) > 0 && len(pv) > 0 && pu[len(pu)-1] == pv[len(pv)-1] {
		pu = pu[:len(pu)-1]
		pv = pv[:len(pv)-1]
	}
	out := make([]int32, 0, len(pu)+len(pv)+1)
	out = append(out, eid)
	out = append(out, pu...)
	out = append(out, pv...)
	return out
}

// perturb returns a copy of g with each edge weight increased by a tiny
// seeded-random epsilon. The epsilons sum to less than 1/2 across any edge
// subset, so for integral base weights the perturbed order refines the true
// order: a basis minimal under perturbed weights is minimal under the
// original weights, while shortest paths and cycle weights become unique
// with probability one. This is the standard tie-breaking device that makes
// the Horton/isometric candidate set provably contain an MCB (Mehlhorn &
// Michail require unique shortest paths).
func perturb(g *graph.Graph, seed uint64) *graph.Graph {
	m := g.NumEdges()
	if m == 0 {
		return g
	}
	rng := gen.NewRNG(seed)
	delta := 0.5 / float64(m)
	edges := make([]graph.Edge, m)
	for i, e := range g.Edges() {
		edges[i] = graph.Edge{U: e.U, V: e.V, W: e.W + rng.Float64()*delta}
	}
	return graph.FromEdges(g.NumVertices(), edges)
}
