// Package bcc computes biconnected components, articulation points, and the
// block-cut tree of an undirected graph (Hopcroft–Tarjan, iterative).
//
// The paper's algorithms operate per biconnected component: each BCC has an
// ear decomposition (Section 2.1), APSP across components is stitched
// through the block-cut tree (Section 2.2), and no MCB cycle spans two
// components (Section 3.3.1). This package is therefore the first stage of
// both pipelines.
package bcc

import (
	"repro/internal/graph"
)

// Decomposition is the result of biconnected-component analysis.
type Decomposition struct {
	// Components lists the edge IDs of each biconnected component. Every
	// edge of the graph appears in exactly one component; a self-loop forms
	// a singleton component.
	Components [][]int32
	// IsArticulation[v] reports whether v is an articulation point.
	IsArticulation []bool
}

// Compute runs the iterative Hopcroft–Tarjan DFS and returns the
// decomposition. Parallel edges are handled correctly (only the specific
// tree edge back to the parent is skipped, so a parallel edge is seen as a
// cycle of length two).
func Compute(g *graph.Graph) *Decomposition {
	n := g.NumVertices()
	d := &Decomposition{IsArticulation: make([]bool, n)}
	if n == 0 {
		return d
	}
	disc := make([]int32, n)
	low := make([]int32, n)
	for i := range disc {
		disc[i] = -1
	}
	visitedEdge := make([]bool, g.NumEdges())
	adjNode, adjEdge := g.AdjNode(), g.AdjEdge()

	type frame struct {
		v          int32
		parentEdge int32
		i          int32 // next adjacency index to scan
	}
	var (
		frames    []frame
		edgeStack []int32
		timer     int32
	)

	for root := int32(0); root < int32(n); root++ {
		if disc[root] >= 0 {
			continue
		}
		disc[root], low[root] = timer, timer
		timer++
		lo, _ := g.AdjacencyRange(root)
		frames = append(frames[:0], frame{v: root, parentEdge: -1, i: lo})
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			_, hi := g.AdjacencyRange(v)
			if f.i < hi {
				i := f.i
				f.i++
				u, eid := adjNode[i], adjEdge[i]
				if eid == f.parentEdge || visitedEdge[eid] {
					continue
				}
				if u == v { // self-loop: its own component
					visitedEdge[eid] = true
					d.Components = append(d.Components, []int32{eid})
					continue
				}
				visitedEdge[eid] = true
				if disc[u] < 0 { // tree edge
					edgeStack = append(edgeStack, eid)
					disc[u], low[u] = timer, timer
					timer++
					ulo, _ := g.AdjacencyRange(u)
					frames = append(frames, frame{v: u, parentEdge: eid, i: ulo})
				} else { // back edge
					edgeStack = append(edgeStack, eid)
					if disc[u] < low[v] {
						low[v] = disc[u]
					}
				}
				continue
			}
			// v is fully explored: propagate low to the parent and close a
			// component if v's subtree cannot reach above the parent.
			parentEdge := f.parentEdge
			frames = frames[:len(frames)-1]
			if len(frames) == 0 {
				continue
			}
			p := &frames[len(frames)-1]
			if low[v] < low[p.v] {
				low[p.v] = low[v]
			}
			if low[v] >= disc[p.v] {
				// p.v separates v's subtree: pop one component, down to
				// and including parentEdge, into an exact-size slice in
				// popped (top-first) order.
				j := len(edgeStack) - 1
				for edgeStack[j] != parentEdge {
					j--
				}
				comp := make([]int32, len(edgeStack)-j)
				for i := range comp {
					comp[i] = edgeStack[len(edgeStack)-1-i]
				}
				edgeStack = edgeStack[:j]
				d.Components = append(d.Components, comp)
			}
		}
	}
	// Articulation points: v is an articulation point iff it belongs to at
	// least two distinct blocks, where a block is a component that is not a
	// pure self-loop (removing v never disconnects a self-loop).
	stamp := make([]int32, n)
	for i := range stamp {
		stamp[i] = -1
	}
	count := make([]int8, n)
	for ci, comp := range d.Components {
		if len(comp) == 1 {
			if e := g.Edge(comp[0]); e.U == e.V {
				continue
			}
		}
		for _, eid := range comp {
			e := g.Edge(eid)
			for _, v := range [2]int32{e.U, e.V} {
				if stamp[v] != int32(ci) {
					stamp[v] = int32(ci)
					if count[v] < 2 {
						count[v]++
					}
				}
			}
		}
	}
	for v := range count {
		if count[v] >= 2 {
			d.IsArticulation[v] = true
		}
	}
	return d
}

// Sum is a checksum of the partition in the order Compute emits it:
// 64-bit FNV-1a over the component count, then each component's length
// and edge IDs, as 32-bit words. Whatever is indexed by block (a
// snapshot's S^r tables and A, a plan's shard map) is stored beside it,
// so a load whose Compute orders the blocks otherwise is refused rather
// than misindexing rows. It allocates nothing.
func (d *Decomposition) Sum() uint64 {
	h := uint64(14695981039346656037)
	word := func(x int) {
		for i := 0; i < 32; i += 8 {
			h = (h ^ uint64(uint8(x>>i))) * 1099511628211
		}
	}
	word(len(d.Components))
	for _, comp := range d.Components {
		word(len(comp))
		for _, e := range comp {
			word(int(e))
		}
	}
	return h
}

// ArticulationPoints returns the articulation vertices in increasing order.
func (d *Decomposition) ArticulationPoints() []int32 {
	var out []int32
	for v, is := range d.IsArticulation {
		if is {
			out = append(out, int32(v))
		}
	}
	return out
}

// LargestComponentEdgeShare returns |E(largest BCC)| / |E| — the paper's
// "Largest BCC (%)" Table 1 column (as a fraction).
func (d *Decomposition) LargestComponentEdgeShare(totalEdges int) float64 {
	if totalEdges == 0 {
		return 0
	}
	max := 0
	for _, c := range d.Components {
		if len(c) > max {
			max = len(c)
		}
	}
	return float64(max) / float64(totalEdges)
}

// Subgraphs materialises each biconnected component as a subgraph with
// local IDs plus the maps back to the parent graph.
func (d *Decomposition) Subgraphs(g *graph.Graph) []*graph.Subgraph {
	out := make([]*graph.Subgraph, len(d.Components))
	for i, comp := range d.Components {
		out[i] = graph.InducedByEdges(g, comp)
	}
	return out
}
