package apsp

import (
	"sort"

	"repro/internal/bcc"
)

// locIndex is the flat parent→local vertex index shared by every block of
// one oracle. It replaces the per-block map[int32]int32: the serving hot
// path (Row, Query, path reconstruction) resolves "local ID of parent
// vertex v inside block b" millions of times, and a hash map per lookup is
// both a pointer chase and an allocation-heavy structure to build. The flat
// layout is two struct-of-arrays tables:
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
// The index is a pure function of (BlockCutTree, per-block subgraphs), both
// deterministic products of the graph and its BCC partition, so snapshot
// load and delta application rebuild or share it without storing it.
type locIndex struct {
	home    []int32 // per parent vertex: local ID in BlockOf[v], -1 outside
	blockOf []int32 // shared with bcc.BlockCutTree.BlockOf

	// Overflow memberships sorted by (vertex, block); ovStart[i] brackets
	// runs via binary search on ovVert.
	ovVert  []int32
	ovBlock []int32
	ovLocal []int32

	// verts[b] is block b's vertex list (its subgraph's ToParentVertex),
	// the per-block row order the stitch kernel's view exposes.
	verts [][]int32
}

// newLocIndex builds the index over the given partition.
func newLocIndex(bct *bcc.BlockCutTree, blocks []*BlockAPSP) *locIndex {
	n := len(bct.BlockOf)
	ix := &locIndex{
		home:    make([]int32, n),
		blockOf: bct.BlockOf,
		verts:   make([][]int32, len(blocks)),
	}
	for i := range ix.home {
		ix.home[i] = -1
	}
	overflow := 0
	for bi, blk := range blocks {
		ix.verts[bi] = blk.Sub.ToParentVertex
		for _, parent := range blk.Sub.ToParentVertex {
			if bct.BlockOf[parent] == int32(bi) {
				continue
			}
			overflow++
		}
	}
	type entry struct{ vert, block, local int32 }
	entries := make([]entry, 0, overflow)
	for bi, blk := range blocks {
		for local, parent := range blk.Sub.ToParentVertex {
			if bct.BlockOf[parent] == int32(bi) {
				ix.home[parent] = int32(local)
				continue
			}
			entries = append(entries, entry{parent, int32(bi), int32(local)})
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].vert != entries[j].vert {
			return entries[i].vert < entries[j].vert
		}
		return entries[i].block < entries[j].block
	})
	ix.ovVert = make([]int32, len(entries))
	ix.ovBlock = make([]int32, len(entries))
	ix.ovLocal = make([]int32, len(entries))
	for i, e := range entries {
		ix.ovVert[i] = e.vert
		ix.ovBlock[i] = e.block
		ix.ovLocal[i] = e.local
	}
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
	i := sort.Search(len(ix.ovVert), func(i int) bool { return ix.ovVert[i] >= v })
	for ; i < len(ix.ovVert) && ix.ovVert[i] == v; i++ {
		if ix.ovBlock[i] == bi {
			return ix.ovLocal[i]
		}
	}
	return -1
}

// buildLocIndex derives the oracle's flat vertex index and stamps every
// block with its ID and a reference to the shared index; assemble calls
// it once the block slice is final.
func (o *Oracle) buildLocIndex() {
	o.loc = newLocIndex(o.BCT, o.Blocks)
	for bi, blk := range o.Blocks {
		blk.bi = int32(bi)
		blk.loc = o.loc
	}
}
