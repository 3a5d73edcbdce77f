package bcc

import (
	"repro/internal/graph"
)

// BlockCutTree is the bipartite tree over blocks (biconnected components)
// and cut vertices (articulation points). The paper's Stage 2 APSP
// post-processing (Section 2.2) walks this tree to stitch shortest paths
// across components through articulation points.
type BlockCutTree struct {
	// CutVertices lists the articulation points (parent-graph vertex IDs);
	// CutIndex is the inverse map (-1 for non-cut vertices).
	CutVertices []int32
	CutIndex    []int32

	// BlockCuts[b] lists, for block b, the indices (into CutVertices) of
	// the cut vertices lying on that block. CutBlocks is the reverse
	// adjacency.
	BlockCuts [][]int32
	CutBlocks [][]int32

	// BlockVerts[b] lists the vertices of block b in order of first
	// appearance over its component's edges: the block's local vertex
	// order, in which its tables are indexed. The lists share one backing
	// slice.
	BlockVerts [][]int32

	// BlockOf[v] is a block containing vertex v (the unique one if v is not
	// a cut vertex; an arbitrary incident block for cut vertices;
	// -1 for isolated vertices).
	BlockOf []int32

	// Parent, Depth and Root root the block-cut forest over its nodes:
	// blocks are [0, B), cut vertices are [B, B+a) by cut index. Parent is
	// -1 at a root, and a root is its own Root at depth 0. Order lists
	// every node once, parents before children (BFS order).
	Parent []int32
	Depth  []int32
	Root   []int32
	Order  []int32
}

// BuildBlockCutTree constructs the tree from a decomposition of g and
// roots it: it is the one place the block-cut forest is rooted.
func BuildBlockCutTree(g *graph.Graph, d *Decomposition) *BlockCutTree {
	n := g.NumVertices()
	t := &BlockCutTree{
		CutIndex: make([]int32, n),
		BlockOf:  make([]int32, n),
	}
	for i := range t.CutIndex {
		t.CutIndex[i] = -1
		t.BlockOf[i] = -1
	}
	for v, is := range d.IsArticulation {
		if is {
			t.CutIndex[v] = int32(len(t.CutVertices))
			t.CutVertices = append(t.CutVertices, int32(v))
		}
	}
	t.BlockCuts = make([][]int32, len(d.Components))
	t.CutBlocks = make([][]int32, len(t.CutVertices))
	t.BlockVerts = make([][]int32, len(d.Components))
	// A vertex lies on one block per tree edge at it, plus a self-loop
	// block: n + #blocks bounds the total on a genuine decomposition. A
	// partition that is not one may outgrow it; its lists stay correct,
	// just not on one backing slice.
	verts := make([]int32, 0, n+len(d.Components))
	stamp := make([]int32, n)
	for i := range stamp {
		stamp[i] = -1
	}
	for bi, comp := range d.Components {
		// A singleton self-loop block must not become a vertex's primary
		// block: it is isolated in the block-cut tree, so routing through
		// it would wrongly report Inf for connected pairs.
		loopBlock := len(comp) == 1 && g.Edge(comp[0]).U == g.Edge(comp[0]).V
		start := len(verts)
		for _, eid := range comp {
			e := g.Edge(eid)
			for _, v := range [2]int32{e.U, e.V} {
				if stamp[v] == int32(bi) {
					continue
				}
				stamp[v] = int32(bi)
				verts = append(verts, v)
				if !loopBlock || t.BlockOf[v] < 0 {
					t.BlockOf[v] = int32(bi)
				}
				if ci := t.CutIndex[v]; ci >= 0 {
					t.BlockCuts[bi] = append(t.BlockCuts[bi], ci)
					t.CutBlocks[ci] = append(t.CutBlocks[ci], int32(bi))
				}
			}
		}
		t.BlockVerts[bi] = verts[start:len(verts):len(verts)]
	}
	// Root the forest by BFS from the lowest unvisited node, visiting
	// neighbours in BlockCuts/CutBlocks order. Every node is visited once,
	// so the arrays are consistent even for a partition whose incidence is
	// not a forest.
	numB := int32(len(t.BlockCuts))
	nodes := len(t.BlockCuts) + len(t.CutBlocks)
	t.Parent = make([]int32, nodes)
	t.Depth = make([]int32, nodes)
	t.Root = make([]int32, nodes)
	t.Order = make([]int32, 0, nodes)
	for i := range t.Parent {
		t.Parent[i] = -1
		t.Root[i] = -1
	}
	visit := func(u, from int32) {
		if t.Root[u] >= 0 {
			return
		}
		t.Root[u] = t.Root[from]
		t.Parent[u] = from
		t.Depth[u] = t.Depth[from] + 1
		t.Order = append(t.Order, u)
	}
	for start := int32(0); start < int32(nodes); start++ {
		if t.Root[start] >= 0 {
			continue
		}
		t.Root[start] = start
		qi := len(t.Order)
		for t.Order = append(t.Order, start); qi < len(t.Order); qi++ {
			v := t.Order[qi]
			if v < numB {
				for _, c := range t.BlockCuts[v] {
					visit(numB+c, v)
				}
			} else {
				for _, b := range t.CutBlocks[v-numB] {
					visit(b, v)
				}
			}
		}
	}
	return t
}

// NumBlocks returns the number of blocks.
func (t *BlockCutTree) NumBlocks() int { return len(t.BlockCuts) }

// IsTree reports whether the block/cut incidence is acyclic (a sanity
// check used by tests): a forest has exactly #nodes − #roots edges.
func (t *BlockCutTree) IsTree() bool {
	edges, roots := 0, 0
	for _, cs := range t.BlockCuts {
		edges += len(cs)
	}
	for _, p := range t.Parent {
		if p < 0 {
			roots++
		}
	}
	return edges == len(t.Parent)-roots
}
