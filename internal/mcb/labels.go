package mcb

import (
	"context"
	"math/bits"
	"time"

	"repro/internal/bitvec"
	"repro/internal/graph"
)

// labelState is the Mehlhorn–Michail labelled-tree search (Section 3.3),
// the paper's production path, over blocks of 64 consecutive witnesses.
// The trees and the weight-sorted candidates are built once; the first
// phase of a block relabels every tree against all 64 witnesses of the
// block as they stood when it began, bit k of a label for witness base+k,
// and each phase scans the candidates still in play for the first
// non-orthogonal one (DESIGN.md §7).
//
// Every vertex of every root tree has one position in lab; position 0 is a
// zero that stands for "no label": it is the parent of every root and both
// endpoints of a self-loop candidate. sb is the block's witnesses bit
// sliced, one word per non-tree edge, behind the same kind of zero, so an
// edge outside E' reads sb[0] and no pass branches on what an edge is:
//
//	l_z(u) = lab[k] = lab[nodes[k].parent] ^ sb[nodes[k].nt]   (Algorithm 3)
//	v_C    = lab[r.a] ^ lab[r.b] ^ sb[r.c]                     (Section 3.3.2)
//
// mix[j%64] writes S_j as it is now as a sum of the block's witnesses, so
// <C, S_j> is the parity of v_C & mix[j%64]. cols is every v_C transposed:
// bit i of word w<<6|k is bit k of candidate w<<6|i's v_C, so a phase XORs
// the columns its mix names, one word per 64 candidates, and stops at the
// first set bit. A found candidate's record is zeroed, so it reads the
// zeros from then on, its column bits are cleared and it goes on dead.
type labelState struct {
	cs *candidateSet
	tm *phaseTimes
	// nodes lists the trees one after another, each in level order, so one
	// forward pass meets every parent before its children.
	nodes   []node
	lab, sb []uint64
	recs    []rec
	cols    []uint64
	mix     [64]uint64
	dead    []uint32
}

// node is one tree vertex: the position of its parent and the sb offset of
// its parent edge.
type node struct{ parent, nt uint32 }

// rec is one candidate as the scan reads it: the positions of its edge's
// endpoints in its root's tree and the sb offset of the edge.
type rec struct{ a, b, c uint32 }

// newLabelState builds the trees and the weight-sorted candidates and lays
// them out flat.
func newLabelState(ctx context.Context, g *graph.Graph, sp *spanning, roots []int32, workers int, tm *phaseTimes) (*labelState, error) {
	t0 := time.Now()
	defer func() { tm.candidates += time.Since(t0) }()
	cs, err := buildCandidatesCtx(ctx, g, roots, workers)
	if err != nil {
		return nil, err
	}
	n, total := g.NumVertices(), 1
	for _, t := range cs.trees {
		total += len(t.Order)
	}
	ls := &labelState{
		cs:    cs,
		tm:    tm,
		nodes: make([]node, 1, total),
		lab:   make([]uint64, total),
		sb:    make([]uint64, 1+sp.dim()),
		recs:  make([]rec, len(cs.cands)),
		cols:  make([]uint64, (len(cs.cands)+63)&^63),
		dead:  make([]uint32, 0, sp.dim()),
	}
	// pos[ri*n+v] is v's position in tree ri; 0 (unreached) is never read.
	pos := make([]uint32, len(cs.trees)*n)
	for ri, t := range cs.trees {
		p := pos[ri*n : (ri+1)*n]
		for _, v := range t.Order {
			p[v] = uint32(len(ls.nodes))
			nd := node{} // the root hangs off the zero
			if v != t.Root {
				nd = node{parent: p[t.Parent[v]], nt: uint32(sp.nontreeIndex[t.ParentEdge[v]] + 1)}
			}
			ls.nodes = append(ls.nodes, nd)
		}
	}
	for i, c := range cs.cands {
		r := rec{c: uint32(sp.nontreeIndex[c.edge] + 1)}
		if c.root >= 0 {
			e, p := g.Edge(c.edge), pos[int(c.root)*n:]
			r.a, r.b = p[e.U], p[e.V]
		}
		ls.recs[i] = r
	}
	return ls, nil
}

// relabel recomputes every label against the witnesses of block — one
// pass for up to 64 phases, Algorithm 3's two passes merged since c_z(u)
// depends only on u's parent edge — and transposes every candidate's v_C
// into the columns.
func (ls *labelState) relabel(block []*bitvec.Vector) {
	sb := ls.sb
	clear(sb)
	for k, s := range block {
		for i := range sb[1:] {
			if s.Get(i) {
				sb[i+1] |= 1 << k
			}
		}
		ls.mix[k] = 1 << k
	}
	lab := ls.lab[:len(ls.nodes)]
	for k, nd := range ls.nodes {
		lab[k] = lab[nd.parent] ^ sb[nd.nt]
	}
	clear(ls.cols)
	for i, r := range ls.recs {
		for v := lab[r.a] ^ lab[r.b] ^ sb[r.c]; v != 0; v &= v - 1 {
			ls.cols[i&^63|bits.TrailingZeros64(v)] |= 1 << (i & 63)
		}
	}
}

// scan returns the first candidate, in weight order, whose cycle has
// <C, S> = 1 for the witness S that m writes in the block's terms, or -1.
// ops counts the live candidates up to and including the hit (all of them
// on a miss), as a one-at-a-time scan would read them.
func (ls *labelState) scan(m uint64) (hit int, ops int64) {
	hit, read := -1, len(ls.recs)
	for w := 0; w < len(ls.cols) && m != 0; w += 64 {
		var x uint64
		for b := m; b != 0; b &= b - 1 {
			x ^= ls.cols[w|bits.TrailingZeros64(b)]
		}
		if x != 0 {
			hit = w | bits.TrailingZeros64(x)
			read = hit + 1
			break
		}
	}
	ops = int64(read)
	for _, d := range ls.dead {
		if int(d) < read {
			ops--
		}
	}
	return hit, ops
}

// next is phase i: relabel at the first phase of i's block, then scan for
// the first cycle with <C, S_i> = 1 and take it out of play. Both passes
// run on the calling goroutine at every worker count (DESIGN.md §7).
func (ls *labelState) next(wit []*bitvec.Vector, i int) (edges []int32, ops int64, ok bool) {
	t0 := time.Now()
	if i%64 == 0 {
		ls.relabel(wit[i:min(i+64, len(wit))])
	}
	t1 := time.Now()
	hit, ops := ls.scan(ls.mix[i%64])
	if hit >= 0 {
		edges = ls.cs.cycleEdges(ls.cs.cands[hit])
		ls.recs[hit], ls.dead = rec{}, append(ls.dead, uint32(hit))
		for k := range 64 {
			ls.cols[hit&^63|k] &^= 1 << (hit & 63)
		}
	}
	ls.tm.labels += t1.Sub(t0)
	ls.tm.scan += time.Since(t1)
	return edges, ops, hit >= 0
}

// xor records S_j ^= S_i for witnesses j and i of the same block.
func (ls *labelState) xor(j, i int) { ls.mix[j%64] ^= ls.mix[i%64] }
