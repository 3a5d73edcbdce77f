package ear

import (
	"fmt"

	"repro/internal/graph"
)

// Chain is one maximal path of degree-2 vertices between two kept
// (degree ≥ 3) vertices A and B of the original graph. A trivial chain has
// no interior vertices and corresponds to an original edge between two kept
// vertices. A loop chain has A == B (a cycle attached to the rest of the
// graph at a single kept vertex, or an entire cycle component, in which
// case A is the designated representative).
type Chain struct {
	A, B int32 // original-graph endpoints (kept vertices)
	// Interior lists the original degree-2 vertices in order from A to B.
	Interior []int32
	// Edges lists the original edge IDs along the chain from A to B;
	// len(Edges) == len(Interior)+1.
	Edges []int32
	// Prefix[i] is the distance from A to Interior[i] along the chain.
	Prefix []graph.Weight
	// Total is the chain's A-to-B length (the weight of the reduced edge).
	Total graph.Weight
}

// Loop reports whether the chain closes on a single kept vertex.
func (c *Chain) Loop() bool { return c.A == c.B }

// Reduced is the reduced graph G^r of Section 2.1.1 plus everything the
// post-processing phases need: the chain records, the anchor tables for
// removed vertices, and the vertex maps between G and G^r.
type Reduced struct {
	Original *graph.Graph
	// R is the reduced graph over kept vertices. In APSP mode parallel
	// chains are collapsed to the cheapest and loop chains are dropped
	// from R (they cannot carry shortest paths between kept vertices); in
	// MCB mode every chain becomes an edge of R, including parallel edges
	// and self-loops, because they are distinct cycle-space generators.
	R *graph.Graph
	// KeptToOrig maps reduced vertex IDs to original IDs; OrigToKept is the
	// inverse (-1 for removed vertices).
	KeptToOrig []int32
	OrigToKept []int32
	// Chains lists every maximal chain (including trivial ones).
	Chains []Chain
	// ChainOf[v] is the index of the chain containing removed vertex v,
	// and PosOf[v] its interior position; both are -1 for kept vertices.
	ChainOf []int32
	PosOf   []int32
	// EdgeChain[re] maps a reduced edge ID to the chain it stands for.
	EdgeChain []int32
}

// Mode selects the multi-edge policy of the reduced graph.
type Mode int

const (
	// APSP keeps, among parallel chains, only the minimum-weight one, and
	// drops loop chains from R (Section 2.1.1: "we retain the edge with the
	// shortest weight and discard the remaining edges").
	APSP Mode = iota
	// MCB keeps every chain as its own reduced edge, including parallel
	// edges and self-loops (Section 3.3.1: "the graph G^r may contain
	// multiple edges and self-loops").
	MCB
)

// Reduce contracts all maximal degree-2 chains of g. The graph should be
// connected; it does not need to be biconnected (chains are purely local),
// but the APSP/MCB pipelines call it per biconnected component.
//
// Every chain's Edges, Interior and Prefix are windows of three arrays
// sized up front (the m edges, and the n − kept removed vertices twice),
// so the allocation count does not depend on how many chains there are.
func Reduce(g *graph.Graph, mode Mode) *Reduced {
	n, m := g.NumVertices(), g.NumEdges()
	r := &Reduced{
		Original:   g,
		OrigToKept: make([]int32, n),
		ChainOf:    make([]int32, n),
		PosOf:      make([]int32, n),
		KeptToOrig: make([]int32, 0, n),
	}
	kept := make([]bool, n)
	for v := int32(0); v < int32(n); v++ {
		// Degree ≠ 2 vertices stay; this keeps pendants (deg 1) and
		// isolated vertices too, which only occur when Reduce is applied
		// to a non-biconnected graph directly.
		kept[v] = g.Degree(v) != 2
		r.OrigToKept[v] = -1
		r.ChainOf[v] = -1
		r.PosOf[v] = -1
	}
	// A component in which every vertex has degree 2 is a simple cycle; no
	// vertex would be kept. Designate its smallest vertex s as kept so the
	// component contributes a loop chain anchored there.
	adjNode, adjEdge := g.AdjNode(), g.AdjEdge()
	seen := make([]bool, n)
	var buf [2]int32 // a walk over degree-2 vertices stacks at most two
	for s := int32(0); s < int32(n); s++ {
		if seen[s] || kept[s] {
			continue
		}
		seen[s] = true
		stack, hasKept := append(buf[:0], s), false
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			lo, hi := g.AdjacencyRange(v)
			for _, u := range adjNode[lo:hi] {
				hasKept = hasKept || kept[u]
				if !kept[u] && !seen[u] {
					seen[u] = true
					stack = append(stack, u)
				}
			}
		}
		kept[s] = !hasKept
	}
	for v := int32(0); v < int32(n); v++ {
		if kept[v] {
			r.OrigToKept[v] = int32(len(r.KeptToOrig))
			r.KeptToOrig = append(r.KeptToOrig, v)
		}
	}

	// Walk chains: from every kept vertex, follow each incident edge
	// through degree-2 vertices until the next kept vertex. A non-loop
	// chain is found from whichever endpoint comes first in KeptToOrig, so
	// the chains found from a form one run with A = a, and parallel chains
	// share a run. Every self-loop sits at a kept vertex and is walked from
	// it as a trivial loop chain.
	nextStep := func(v, inEdge int32) (int32, int32) {
		// v has degree 2 and is not kept: take its other incident edge.
		lo, hi := g.AdjacencyRange(v)
		for i := lo; i < hi; i++ {
			if adjEdge[i] != inEdge {
				return adjNode[i], adjEdge[i]
			}
		}
		// Both half-edges have the same ID only for a self-loop, which
		// cannot occur at a degree-2 vertex mid-chain.
		panic(fmt.Sprintf("ear: degree-2 vertex %d has no second edge", v))
	}
	removed, nk := n-len(r.KeptToOrig), len(r.KeptToOrig)
	edges, interior, prefix := make([]int32, 0, m), make([]int32, 0, removed), make([]graph.Weight, 0, removed)
	r.Chains, r.EdgeChain = make([]Chain, 0, m-removed), make([]int32, 0, m-removed)
	redges := make([]graph.Edge, 0, m-removed)
	usedEdge := make([]bool, m)
	// slot[k] is 1 + the run's first cheapest chain to kept vertex k;
	// values at or below the run's first index are an earlier run's.
	slot := make([]int32, nk)
	for _, a := range r.KeptToOrig {
		run := int32(len(r.Chains))
		lo, hi := g.AdjacencyRange(a)
		for i := lo; i < hi; i++ {
			v, e := adjNode[i], adjEdge[i]
			if usedEdge[e] {
				continue
			}
			ci, e0, i0 := int32(len(r.Chains)), len(edges), len(interior)
			usedEdge[e] = true
			edges = append(edges, e)
			w := g.Edge(e).W
			for !kept[v] {
				r.ChainOf[v], r.PosOf[v] = ci, int32(len(interior)-i0)
				interior = append(interior, v)
				prefix = append(prefix, w)
				v, e = nextStep(v, e)
				usedEdge[e] = true
				edges = append(edges, e)
				w += g.Edge(e).W
			}
			r.Chains = append(r.Chains, Chain{A: a, B: v, Total: w,
				Edges:    edges[e0:len(edges):len(edges)],
				Interior: interior[i0:len(interior):len(interior)],
				Prefix:   prefix[i0:len(prefix):len(prefix)]})
			// APSP keeps, per kept pair, the first chain of least Total.
			if k := r.OrigToKept[v]; v != a && (slot[k] <= run || w < r.Chains[slot[k]-1].Total) {
				slot[k] = ci + 1
			}
		}
		// Reduced edges follow chain order, so their IDs are deterministic.
		for ci := run; ci < int32(len(r.Chains)); ci++ {
			c := &r.Chains[ci]
			if ka, kb := r.OrigToKept[c.A], r.OrigToKept[c.B]; mode == MCB || (ka != kb && slot[kb] == ci+1) {
				redges = append(redges, graph.Edge{U: ka, V: kb, W: c.Total})
				r.EdgeChain = append(r.EdgeChain, ci)
			}
		}
	}
	r.R = graph.FromEdges(nk, redges)
	return r
}

// NumRemoved returns the number of vertices removed by the contraction —
// the paper's "Nodes Removed (%)" numerator.
func (r *Reduced) NumRemoved() int {
	return r.Original.NumVertices() - len(r.KeptToOrig)
}

// Anchors returns, for a removed original vertex x, its chain endpoints
// left(x)=A and right(x)=B as *original* vertex IDs together with the
// along-chain distances to each (Section 2.1.1's left/right functions).
func (r *Reduced) Anchors(x int32) (a, b int32, da, db graph.Weight) {
	ci := r.ChainOf[x]
	c := &r.Chains[ci]
	p := c.Prefix[r.PosOf[x]]
	return c.A, c.B, p, c.Total - p
}

// SameChain reports whether two removed vertices lie on the same chain and,
// if so, the absolute along-chain distance between them.
func (r *Reduced) SameChain(x, y int32) (direct graph.Weight, ok bool) {
	cx, cy := r.ChainOf[x], r.ChainOf[y]
	if cx < 0 || cx != cy {
		return 0, false
	}
	c := &r.Chains[cx]
	px, py := c.Prefix[r.PosOf[x]], c.Prefix[r.PosOf[y]]
	if px > py {
		px, py = py, px
	}
	return py - px, true
}

// ExpandEdge rewrites a reduced edge back into the original edge IDs of its
// chain — the per-query MCB cycle expansion of Section 3.3.3.
func (r *Reduced) ExpandEdge(reducedEdge int32) []int32 {
	return r.Chains[r.EdgeChain[reducedEdge]].Edges
}

// Validate checks internal invariants; tests call it after every Reduce.
func (r *Reduced) Validate() error {
	g := r.Original
	// Every original edge appears in exactly one chain.
	seen := make([]int32, g.NumEdges())
	for i := range seen {
		seen[i] = -1
	}
	for ci := range r.Chains {
		c := &r.Chains[ci]
		if len(c.Edges) != len(c.Interior)+1 {
			return fmt.Errorf("chain %d: %d edges for %d interior vertices", ci, len(c.Edges), len(c.Interior))
		}
		if len(c.Prefix) != len(c.Interior) {
			return fmt.Errorf("chain %d: prefix/interior length mismatch", ci)
		}
		for _, e := range c.Edges {
			if seen[e] >= 0 {
				return fmt.Errorf("edge %d in chains %d and %d", e, seen[e], ci)
			}
			seen[e] = int32(ci)
		}
		var w graph.Weight
		for i, e := range c.Edges {
			w += g.Edge(e).W
			if i < len(c.Prefix) && c.Prefix[i] != w {
				return fmt.Errorf("chain %d: prefix[%d]=%v want %v", ci, i, c.Prefix[i], w)
			}
		}
		if w != c.Total {
			return fmt.Errorf("chain %d: total %v want %v", ci, c.Total, w)
		}
	}
	for e, ci := range seen {
		if ci < 0 {
			return fmt.Errorf("edge %d on no chain", e)
		}
	}
	return nil
}
