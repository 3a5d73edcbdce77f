package apsp

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/bcc"
)

// locIndex is the flat parent→local vertex index shared by every block of
// one oracle. It replaces the per-block map[int32]int32: the serving hot
// path (Row, Query, path reconstruction) resolves "local ID of parent
// vertex v inside block b" millions of times, and a hash map per lookup is
// both a pointer chase and an allocation-heavy structure to build. The flat
// layout is two tables:
//
//   - home[v]: the local ID of v inside its home block BlockOf[v] — an O(1)
//     array read that answers every lookup for single-block vertices (the
//     overwhelming majority after ear reduction);
//   - a sorted overflow table listing every (vertex, block, local)
//     membership outside the vertex's home block. Articulation points land
//     here, but so does any vertex a self-loop component duplicates —
//     membership in several blocks does NOT imply being a cut vertex, so
//     the overflow is keyed by vertex ID (binary search), not by cut index.
//
// The index is the inverse of BlockCutTree.BlockVerts, a deterministic
// product of the graph and its BCC partition, so snapshot load and delta
// application rebuild or share it without storing it, before any block is
// solved.
type locIndex struct {
	home    []int32 // per parent vertex: local ID in BlockOf[v], -1 outside
	blockOf []int32 // shared with bcc.BlockCutTree.BlockOf

	// ov lists the memberships outside home blocks, sorted by (vertex,
	// block): a vertex's run is found by binary search.
	ov []membership
}

// membership places vertex vert at local ID local of block block.
type membership struct{ vert, block, local int32 }

// newLocIndex builds the index over the block-cut tree's vertex lists.
func newLocIndex(bct *bcc.BlockCutTree) *locIndex {
	ix := &locIndex{home: make([]int32, len(bct.BlockOf)), blockOf: bct.BlockOf}
	for i := range ix.home {
		ix.home[i] = -1
	}
	for bi, verts := range bct.BlockVerts {
		for local, parent := range verts {
			if bct.BlockOf[parent] == int32(bi) {
				ix.home[parent] = int32(local)
			} else {
				ix.ov = append(ix.ov, membership{parent, int32(bi), int32(local)})
			}
		}
	}
	slices.SortFunc(ix.ov, func(x, y membership) int {
		return cmp.Or(cmp.Compare(x.vert, y.vert), cmp.Compare(x.block, y.block))
	})
	return ix
}

// local resolves parent vertex v to its local ID inside block bi, or -1
// when v does not lie on that block.
func (ix *locIndex) local(bi, v int32) int32 {
	if v < 0 || int(v) >= len(ix.home) {
		return -1
	}
	if ix.blockOf[v] == bi {
		return ix.home[v]
	}
	// Overflow: binary search the first entry for v, then scan its short
	// contiguous run (a vertex sits on few blocks).
	i := sort.Search(len(ix.ov), func(i int) bool { return ix.ov[i].vert >= v })
	for ; i < len(ix.ov) && ix.ov[i].vert == v; i++ {
		if ix.ov[i].block == bi {
			return ix.ov[i].local
		}
	}
	return -1
}
