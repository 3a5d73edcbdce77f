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

	// BlockOf[v] is a block containing vertex v (the unique one if v is not
	// a cut vertex; an arbitrary incident block for cut vertices;
	// -1 for isolated vertices).
	BlockOf []int32
}

// BuildBlockCutTree constructs the tree from a decomposition of g.
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
	stamp := make([]int32, n)
	for i := range stamp {
		stamp[i] = -1
	}
	for bi, comp := range d.Components {
		// A singleton self-loop block must not become a vertex's primary
		// block: it is isolated in the block-cut tree, so routing through
		// it would wrongly report Inf for connected pairs.
		loopBlock := len(comp) == 1 && g.Edge(comp[0]).U == g.Edge(comp[0]).V
		for _, eid := range comp {
			e := g.Edge(eid)
			for _, v := range [2]int32{e.U, e.V} {
				if stamp[v] == int32(bi) {
					continue
				}
				stamp[v] = int32(bi)
				if !loopBlock || t.BlockOf[v] < 0 {
					t.BlockOf[v] = int32(bi)
				}
				if ci := t.CutIndex[v]; ci >= 0 {
					t.BlockCuts[bi] = append(t.BlockCuts[bi], ci)
					t.CutBlocks[ci] = append(t.CutBlocks[ci], int32(bi))
				}
			}
		}
	}
	return t
}

// NumBlocks returns the number of blocks.
func (t *BlockCutTree) NumBlocks() int { return len(t.BlockCuts) }

// IsTree verifies the block/cut incidence structure is acyclic within each
// connected component (a sanity check used by tests): #edges = #nodes −
// #components when restricted to the bipartite incidence graph.
func (t *BlockCutTree) IsTree() bool {
	nodes := len(t.BlockCuts) + len(t.CutVertices)
	edges := 0
	for _, cs := range t.BlockCuts {
		edges += len(cs)
	}
	// count components of the bipartite graph with a BFS
	adjB := t.BlockCuts
	adjC := t.CutBlocks
	seenB := make([]bool, len(adjB))
	seenC := make([]bool, len(adjC))
	comps := 0
	var qb, qc []int32
	for s := range adjB {
		if seenB[s] {
			continue
		}
		comps++
		seenB[s] = true
		qb = append(qb[:0], int32(s))
		qc = qc[:0]
		for len(qb) > 0 || len(qc) > 0 {
			if len(qb) > 0 {
				b := qb[len(qb)-1]
				qb = qb[:len(qb)-1]
				for _, c := range adjB[b] {
					if !seenC[c] {
						seenC[c] = true
						qc = append(qc, c)
					}
				}
				continue
			}
			c := qc[len(qc)-1]
			qc = qc[:len(qc)-1]
			for _, b := range adjC[c] {
				if !seenB[b] {
					seenB[b] = true
					qb = append(qb, b)
				}
			}
		}
	}
	for c := range adjC {
		if !seenC[c] {
			comps++ // isolated cut vertex cannot happen, but count defensively
		}
	}
	return edges == nodes-comps
}
