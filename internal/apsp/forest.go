package apsp

import (
	"math/bits"

	"repro/internal/bcc"
)

// Forest is binary lifting over the rooted bipartite block-cut forest
// for LCA and level-ancestor queries — the O(log n) navigation that finds,
// for a cross-block pair, the gateway articulation points of the unique
// tree path between their blocks (Section 2.2). Node IDs: blocks are
// [0, B), cut vertices are [B, B+a) by AP index.
//
// The rooting is the BlockCutTree's: nodeParent, nodeDepth and nodeRoot
// are its Parent, Depth and Root slices, not copies. assemble builds the
// lifting over the oracle's BlockCutTree for every oracle — built,
// loaded, or a plan manifest's table-less one — so the pair kernel
// (pair.go) looks gates up the same way on a monolith and a frontend.
type Forest struct {
	nodeParent []int32
	nodeDepth  []int32
	nodeRoot   []int32
	// up is the binary-lifting ancestor table, flattened row-major:
	// up[k*numNodes+v] is v's 2^k-th ancestor (-1 past the root).
	up       []int32
	upLevels int
}

// newForest prepares binary lifting over t's rooted forest. The table is
// one flat row-major array (level k at up[k*n : (k+1)*n]) — a single
// allocation the LCA walk strides through without pointer hops.
func newForest(t *bcc.BlockCutTree) Forest {
	f := Forest{nodeParent: t.Parent, nodeDepth: t.Depth, nodeRoot: t.Root}
	n := len(f.nodeParent)
	levels := 1
	if n > 1 {
		levels = bits.Len(uint(n))
	}
	f.upLevels = levels
	f.up = make([]int32, levels*n)
	copy(f.up[:n], f.nodeParent)
	for k := 1; k < levels; k++ {
		prev, cur := f.up[(k-1)*n:k*n], f.up[k*n:(k+1)*n]
		for v := 0; v < n; v++ {
			p := prev[v]
			if p < 0 {
				cur[v] = -1
			} else {
				cur[v] = prev[p]
			}
		}
	}
	return f
}

func (f *Forest) ancestorAtDepth(v int32, depth int32) int32 {
	n := int32(len(f.nodeParent))
	diff := f.nodeDepth[v] - depth
	for k := int32(0); diff > 0; k++ {
		if diff&1 == 1 {
			v = f.up[k*n+v]
		}
		diff >>= 1
	}
	return v
}

func (f *Forest) lca(u, v int32) int32 {
	if f.nodeDepth[u] > f.nodeDepth[v] {
		u, v = v, u
	}
	v = f.ancestorAtDepth(v, f.nodeDepth[u])
	if u == v {
		return u
	}
	n := int32(len(f.nodeParent))
	for k := int32(f.upLevels) - 1; k >= 0; k-- {
		if f.up[k*n+u] != f.up[k*n+v] {
			u = f.up[k*n+u]
			v = f.up[k*n+v]
		}
	}
	return f.nodeParent[u]
}

// gate returns the node after b on the forest path toward node t (b != t,
// same tree). From a block node that is the gateway cut node; from a cut
// node the same step is already correct and yields the next block.
func (f *Forest) gate(b, t int32) int32 {
	if f.lca(b, t) == b {
		return f.ancestorAtDepth(t, f.nodeDepth[b]+1)
	}
	return f.nodeParent[b]
}

// path returns the nodes of the unique forest path from s to t (same
// tree), both ends included — blocks and cut nodes alternating, one gate
// step each.
func (f *Forest) path(s, t int32) []int32 {
	nodes := make([]int32, 0, f.nodeDepth[s]+f.nodeDepth[t]+1)
	for nodes = append(nodes, s); s != t; nodes = append(nodes, s) {
		s = f.gate(s, t)
	}
	return nodes
}

// adjacent reports whether block node b and cut node c share a forest
// edge, i.e. the cut vertex lies on the block.
func (f *Forest) adjacent(b, c int32) bool {
	return f.nodeParent[b] == c || f.nodeParent[c] == b
}
