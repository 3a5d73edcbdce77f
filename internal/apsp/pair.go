package apsp

import (
	"context"

	"repro/internal/graph"
)

// The pair kernel: Section 2.2 at its own granularity. After ear reduction
// a pair (u, v) is O(1) table reads — at most one in-block distance on
// each end and one entry of the articulation table A between the two
// gateway cut vertices — so answering it never needs a row. This file is
// the one copy of that case analysis. It runs in two steps so that it can
// be fed from either side of the wire without a callback on the hot path:
// PlanPair reads only the topology and A and names the ≤ 2 in-block
// entries the answer needs; the caller supplies them (the oracle from its
// resident S^r tables, a sharded frontend from ≤ 2 fetched block rows)
// and PairPlan.Distance combines. Both callers therefore agree bit for
// bit for the same reason the row kernel's callers do: same code, same
// per-block bytes.

// BlockEntry names one in-block distance d_Block(Src, Dst); both are
// parent-graph vertices lying on Block.
type BlockEntry struct {
	Block, Src, Dst int32
}

// PairPlan is the outcome of the case analysis for one pair: the N ≤ 2
// in-block entries still to be read and the term that needs no block.
type PairPlan struct {
	Want [2]BlockEntry
	N    int
	// mid is the A hop between the gateways (0 when the pair needs none),
	// or the whole answer when N == 0.
	mid graph.Weight
}

// PlanPair runs the case analysis for d_G(u, w):
//
//   - two articulation points: A alone;
//   - an articulation point and a regular vertex x: one entry of x's
//     block, from the AP itself when it lies on that block, else from the
//     block's gateway toward the AP plus the A hop between the two;
//   - two regular vertices: one entry when they share a block, else one
//     entry on each end to the block's gateway toward the other and the A
//     hop between the gateways.
//
// Isolated vertices and pairs in different components plan to Inf. An
// out-of-range vertex comes back as a *QueryError wrapping ErrVertexRange.
func (o *Oracle) PlanPair(u, w int32) (PairPlan, error) {
	bct := o.BCT
	n := len(bct.CutIndex)
	if u < 0 || int(u) >= n || w < 0 || int(w) >= n {
		return PairPlan{mid: Inf}, &QueryError{Op: "Pair", U: u, V: w, N: n, Err: ErrVertexRange}
	}
	if u == w {
		return PairPlan{}, nil
	}
	numB := int32(len(o.Blocks))
	iu, iw := bct.CutIndex[u], bct.CutIndex[w]
	if iu >= 0 && iw >= 0 {
		return PairPlan{mid: o.ap(iu, iw)}, nil
	}
	if iu >= 0 || iw >= 0 {
		ia, x := iu, w
		if iw >= 0 {
			ia, x = iw, u
		}
		bx, apNode := bct.BlockOf[x], numB+ia
		switch {
		case bx < 0 || o.nodeRoot[bx] != o.nodeRoot[apNode]:
			return PairPlan{mid: Inf}, nil
		case o.adjacent(bx, apNode):
			return PairPlan{Want: [2]BlockEntry{{bx, bct.CutVertices[ia], x}}, N: 1}, nil
		}
		a2 := o.gate(bx, apNode) - numB
		return PairPlan{
			Want: [2]BlockEntry{{bx, bct.CutVertices[a2], x}}, N: 1,
			mid: o.ap(ia, a2),
		}, nil
	}
	bu, bw := bct.BlockOf[u], bct.BlockOf[w]
	switch {
	case bu < 0 || bw < 0:
		return PairPlan{mid: Inf}, nil // isolated vertex
	case bu == bw:
		return PairPlan{Want: [2]BlockEntry{{bu, u, w}}, N: 1}, nil
	case o.nodeRoot[bu] != o.nodeRoot[bw]:
		return PairPlan{mid: Inf}, nil // different connected components
	}
	a1 := o.gate(bu, bw) - numB
	a2 := o.gate(bw, bu) - numB
	return PairPlan{
		Want: [2]BlockEntry{{bu, u, bct.CutVertices[a1]}, {bw, bct.CutVertices[a2], w}}, N: 2,
		mid: o.ap(a1, a2),
	}, nil
}

// Distance combines the plan with the in-block entries it asked for:
// d0 = Want[0], d1 = Want[1], and 0 for an entry the plan did not want, so
// that one sum covers every case (x + 0 is exact).
func (p *PairPlan) Distance(d0, d1 graph.Weight) graph.Weight {
	return addInf(d0, p.mid, d1)
}

// EntryAt reads entry e out of the in-block row d_Block(e.Src, ·), given
// in the order of the block's vertex list (BCT.BlockVerts) — what a
// block-row provider returns. Dst's place in the row is one vertex-index
// lookup; a Dst that is not on the block reads Inf, mirroring QueryParent.
func (o *Oracle) EntryAt(e BlockEntry, row []graph.Weight) graph.Weight {
	if k := o.loc.local(e.Block, e.Dst); k >= 0 {
		return row[k]
	}
	return Inf
}

// Pair answers one pair from the resident tables; it is Query behind the
// engine's pair-source seam (internal/qe), so it cannot fail and ignores
// ctx. Out-of-range vertices report Inf, as Query does.
func (o *Oracle) Pair(_ context.Context, u, v int32) (graph.Weight, error) {
	return o.Query(u, v), nil
}
