package ear

import (
	"fmt"
	"math"

	"repro/internal/graph"
)

// Reduced is the reduced graph G^r of Section 2.1.1 plus everything the
// post-processing phases need: the chains, the anchors of removed
// vertices, and the vertex maps between G and G^r.
//
// A chain is one maximal path of degree-2 vertices between two kept
// (degree ≠ 2) vertices A and B of the original graph. A loop chain has
// A == B (a cycle attached to the rest of the graph at a single kept
// vertex, or an entire cycle component, in which case A is the designated
// representative). A trivial chain has no interior: it is one original
// edge between two kept vertices, and it has no entry in the chain arrays,
// which hold the chains with an interior, numbered in walk order. None of
// the arrays holds a pointer.
type Reduced struct {
	// R is the reduced graph over kept vertices. In APSP mode parallel
	// chains are collapsed to the cheapest and loop chains are dropped
	// from R (they cannot carry shortest paths between kept vertices); in
	// MCB mode every chain becomes an edge of R, including parallel edges
	// and self-loops, because they are distinct cycle-space generators.
	R *graph.Graph
	// N and M are the vertex and edge counts of the graph it reduced.
	N, M int
	// KeptToOrig maps reduced vertex IDs to original IDs; OrigToKept is the
	// inverse (-1 for removed vertices).
	KeptToOrig []int32
	OrigToKept []int32
	// Chain c runs from ChainA[c] to ChainB[c] (original IDs) through the
	// removed vertices Interior[ChainStart[c]:ChainStart[c+1]], in order
	// from A. Prefix[i] is the along-chain distance from A to Interior[i],
	// and ChainTotal[c] the chain's A-to-B length. Its original edge IDs
	// from A to B are Edges[ChainStart[c]+c : ChainStart[c+1]+c+1], one
	// more than its interior.
	ChainA, ChainB, ChainStart []int32
	ChainTotal                 []graph.Weight
	Interior, Edges            []int32
	Prefix                     []graph.Weight
	// ChainOf[v] is the chain of removed vertex v, and PosOf[v] its index
	// in Interior; both are -1 for kept vertices.
	ChainOf []int32
	PosOf   []int32
	// EdgeChain[re] is the chain reduced edge re stands for, or ^e when it
	// stands for the trivial chain of original edge e.
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
// The chain arrays are windows of one int32 and one weight array sized up
// front (a chain with an interior holds at least one removed vertex and at
// most twice as many edges), so the allocation count does not depend on
// how many chains there are.
func Reduce(g *graph.Graph, mode Mode) *Reduced {
	n, m := g.NumVertices(), g.NumEdges()
	r := &Reduced{
		N:          n,
		M:          m,
		OrigToKept: make([]int32, n),
		ChainOf:    make([]int32, n),
		PosOf:      make([]int32, n),
		KeptToOrig: make([]int32, 0, n),
	}
	flags := make([]bool, 2*n)
	kept, seen := flags[:n], flags[n:]
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
	ne := min(m, 2*removed)
	ints := make([]int32, 4*removed+ne+1)
	r.Interior, ints = ints[:0:removed], ints[removed:]
	r.Edges, ints = ints[:0:ne], ints[ne:]
	r.ChainA, ints = ints[:0:removed], ints[removed:]
	r.ChainB, ints = ints[:0:removed], ints[removed:]
	r.ChainStart = append(ints[:0:removed+1], 0)
	weights := make([]graph.Weight, 2*removed)
	r.Prefix, r.ChainTotal = weights[:0:removed], weights[removed:removed]
	// Every chain of a run goes into EdgeChain and R's edges as it is
	// walked (there are m − removed chains); in APSP mode the run is then
	// filtered down to the reduced edges it keeps, in place.
	r.EdgeChain = make([]int32, 0, m-removed)
	redges := make([]graph.Edge, 0, m-removed)
	usedEdge := make([]bool, m)
	// slot[k] is 1 + the run's first cheapest chain to kept vertex k, as an
	// index into redges; values at or below the run's start are an earlier
	// run's, and the filter clears the ones it reads, which a shorter
	// redges could otherwise take for this run's.
	slot := make([]int32, nk)
	for ka, a := range r.KeptToOrig {
		run := int32(len(redges))
		lo, hi := g.AdjacencyRange(a)
		for i := lo; i < hi; i++ {
			v, e := adjNode[i], adjEdge[i]
			if usedEdge[e] {
				continue
			}
			usedEdge[e] = true
			w, ref := g.Edge(e).W, ^e
			if !kept[v] {
				ref = int32(len(r.ChainA))
				r.Edges = append(r.Edges, e)
				for !kept[v] {
					r.ChainOf[v], r.PosOf[v] = ref, int32(len(r.Interior))
					r.Interior = append(r.Interior, v)
					r.Prefix = append(r.Prefix, w)
					v, e = nextStep(v, e)
					usedEdge[e] = true
					r.Edges = append(r.Edges, e)
					w += g.Edge(e).W
				}
				r.ChainA, r.ChainB = append(r.ChainA, a), append(r.ChainB, v)
				r.ChainStart = append(r.ChainStart, int32(len(r.Interior)))
				r.ChainTotal = append(r.ChainTotal, w)
			}
			// APSP keeps, per kept pair, the first chain of least Total.
			k := r.OrigToKept[v]
			if v != a && (slot[k] <= run || w < redges[slot[k]-1].W) {
				slot[k] = int32(len(redges)) + 1
			}
			redges = append(redges, graph.Edge{U: int32(ka), V: k, W: w})
			r.EdgeChain = append(r.EdgeChain, ref)
		}
		if mode == MCB {
			continue
		}
		// Reduced edges follow chain order, so their IDs are deterministic.
		j := run
		for i := run; i < int32(len(redges)); i++ {
			if e := redges[i]; e.U != e.V && slot[e.V] == i+1 {
				redges[j], r.EdgeChain[j] = e, r.EdgeChain[i]
				slot[e.V] = 0
				j++
			}
		}
		redges, r.EdgeChain = redges[:j], r.EdgeChain[:j]
	}
	r.R = graph.FromEdges(nk, redges)
	return r
}

// NumRemoved returns the number of vertices removed by the contraction —
// the paper's "Nodes Removed (%)" numerator.
func (r *Reduced) NumRemoved() int { return r.N - len(r.KeptToOrig) }

// NumChains returns the number of maximal chains, trivial ones included.
// Every edge lies on one chain, and a chain has one edge more than its
// interior.
func (r *Reduced) NumChains() int { return r.M - r.NumRemoved() }

// Anchors returns, for a removed original vertex x, its chain endpoints
// left(x)=A and right(x)=B as *original* vertex IDs together with the
// along-chain distances to each (Section 2.1.1's left/right functions).
func (r *Reduced) Anchors(x int32) (a, b int32, da, db graph.Weight) {
	ci := r.ChainOf[x]
	p := r.Prefix[r.PosOf[x]]
	return r.ChainA[ci], r.ChainB[ci], p, r.ChainTotal[ci] - p
}

// SameChain reports whether two removed vertices lie on the same chain and,
// if so, the absolute along-chain distance between them.
func (r *Reduced) SameChain(x, y int32) (direct graph.Weight, ok bool) {
	cx, cy := r.ChainOf[x], r.ChainOf[y]
	if cx < 0 || cx != cy {
		return 0, false
	}
	return math.Abs(r.Prefix[r.PosOf[x]] - r.Prefix[r.PosOf[y]]), true
}

// chainEdges returns chain c's original edge IDs, from A to B.
func (r *Reduced) chainEdges(c int32) []int32 {
	return r.Edges[r.ChainStart[c]+c : r.ChainStart[c+1]+c+1]
}

// ExpandEdge appends the original edge IDs of reduced edge re's chain to
// out — the per-query MCB cycle expansion of Section 3.3.3.
func (r *Reduced) ExpandEdge(out []int32, re int32) []int32 {
	if c := r.EdgeChain[re]; c >= 0 {
		return append(out, r.chainEdges(c)...)
	}
	return append(out, ^r.EdgeChain[re])
}

// Validate checks the reduction against g, the graph it reduced; tests
// call it after every Reduce.
func (r *Reduced) Validate(g *graph.Graph) error {
	nc := len(r.ChainA)
	if r.N != g.NumVertices() || r.M != g.NumEdges() || len(r.ChainB) != nc || len(r.ChainTotal) != nc ||
		len(r.ChainStart) != nc+1 || r.ChainStart[0] != 0 || int(r.ChainStart[nc]) != len(r.Interior) ||
		len(r.Interior) != r.NumRemoved() || len(r.Prefix) != len(r.Interior) || len(r.Edges) != len(r.Interior)+nc {
		return fmt.Errorf("%d chains, %d interior vertices, %d prefixes and %d edges for %d of %d vertices removed",
			nc, len(r.Interior), len(r.Prefix), len(r.Edges), r.NumRemoved(), g.NumVertices())
	}
	// Every original edge lies on exactly one chain: a chain with an
	// interior, or the trivial chain of an edge between kept vertices.
	seen := make([]int32, g.NumEdges())
	for ci := range int32(nc) {
		w, lo, hi := graph.Weight(0), r.ChainStart[ci], r.ChainStart[ci+1]
		if lo >= hi {
			return fmt.Errorf("chain %d has no interior", ci)
		}
		for i, e := range r.chainEdges(ci) {
			if seen[e] != 0 {
				return fmt.Errorf("edge %d in chains %d and %d", e, seen[e]-1, ci)
			}
			seen[e], w = ci+1, w+g.Edge(e).W
			if j := lo + int32(i); j < hi && r.Prefix[j] != w {
				return fmt.Errorf("chain %d: prefix[%d]=%v want %v", ci, i, r.Prefix[j], w)
			}
		}
		if w != r.ChainTotal[ci] {
			return fmt.Errorf("chain %d: total %v want %v", ci, r.ChainTotal[ci], w)
		}
	}
	for e, ci := range seen {
		if ed := g.Edge(int32(e)); ci == 0 && (r.OrigToKept[ed.U] < 0 || r.OrigToKept[ed.V] < 0) {
			return fmt.Errorf("edge %d on no chain", e)
		}
	}
	return nil
}
