package mcb

import (
	"context"
	"time"

	"repro/internal/bitvec"
	"repro/internal/graph"
)

// labelState is the labelled search of Section 3.3 as flat arrays. Every
// vertex of every root tree has one position in lab; position 0 is a zero
// that stands for "no label": it is the parent of every root and both
// endpoints of a self-loop candidate. sb is the witness as bytes behind
// the same kind of zero, so an edge outside E' reads sb[0] and neither
// pass branches on what an edge is:
//
//	l_z(u)  = lab[k] = lab[nodes[k].parent] ^ sb[nodes[k].nt]   (Algorithm 3)
//	<C_ze,S> = lab[r.a] ^ lab[r.b] ^ sb[r.c]                     (Section 3.3.2)
type labelState struct {
	// nodes lists the trees one after another, each in level order, so one
	// forward pass meets every parent before its children.
	nodes []node
	lab   []uint8
	sb    []uint8
	// recs are the candidates in weight order, and cands says which cycle
	// each one is. A found candidate's record is zeroed in place — the
	// mark of Section 3.3.2: it reads the two zeros and never hits again —
	// its position goes on dead, and once half the records are dead they
	// are compacted away.
	recs  []rec
	cands []candidate
	dead  []uint32
}

// node is one tree vertex: the position of its parent and the sb offset of
// its parent edge.
type node struct{ parent, nt uint32 }

// rec is one candidate as the scan reads it: the positions of its edge's
// endpoints in its root's tree and the sb offset of the edge. No live
// record is all zero: a tree position is at least 1 and a self-loop is
// always in E'.
type rec struct{ a, b, c uint32 }

// newLabelState lays the trees and the weight-sorted candidates of cs out
// flat. It takes over cs.cands.
func newLabelState(cs *candidateSet, sp *spanning) *labelState {
	n, total := cs.g.NumVertices(), 1
	for _, t := range cs.trees {
		total += len(t.Order)
	}
	ls := &labelState{
		nodes: make([]node, 1, total),
		lab:   make([]uint8, total),
		sb:    make([]uint8, 1+sp.dim()),
		recs:  make([]rec, len(cs.cands)),
		cands: cs.cands,
		dead:  make([]uint32, 0, len(cs.cands)/2+1),
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
			e, p := cs.g.Edge(c.edge), pos[int(c.root)*n:]
			r.a, r.b = p[e.U], p[e.V]
		}
		ls.recs[i] = r
	}
	return ls
}

// relabel recomputes every label against the witness s: one op per tree
// vertex, Algorithm 3's two passes merged since c_z(u) depends only on u's
// parent edge.
func (ls *labelState) relabel(s *bitvec.Vector) {
	sb := ls.sb[1:]
	for i := range sb {
		sb[i] = 0
		if s.Get(i) {
			sb[i] = 1
		}
	}
	sb, lab := ls.sb, ls.lab[:len(ls.nodes)]
	for k, nd := range ls.nodes {
		lab[k] = lab[nd.parent] ^ sb[nd.nt]
	}
}

// scan returns the first candidate, in weight order, whose cycle has
// <C, S> = 1 under the labels of the last relabel, or -1. ops counts the
// live candidates read, the hit included, so it does not depend on when
// dead ones are compacted away.
func (ls *labelState) scan() (hit int, ops int64) {
	lab, sb := ls.lab, ls.sb
	hit, read := -1, len(ls.recs)
	for i, r := range ls.recs {
		if lab[r.a]^lab[r.b]^sb[r.c] != 0 {
			hit, read = i, i+1
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

// remove takes candidate i out of every later scan.
func (ls *labelState) remove(i int) {
	ls.recs[i] = rec{}
	if ls.dead = append(ls.dead, uint32(i)); 2*len(ls.dead) < len(ls.recs) {
		return
	}
	live := 0
	for j, r := range ls.recs {
		if r != (rec{}) {
			ls.recs[live], ls.cands[live] = r, ls.cands[j]
			live++
		}
	}
	ls.recs, ls.cands, ls.dead = ls.recs[:live], ls.cands[:live], ls.dead[:0]
}

// labelledSearch is the Mehlhorn–Michail labelled-tree search (Section
// 3.3), the paper's production path: shortest path trees and the
// weight-sorted candidate cycles are built once, and each phase relabels
// the trees against the witness and scans the candidates still in play for
// the first non-orthogonal one.
type labelledSearch struct {
	cs *candidateSet
	ls *labelState
	tm *phaseTimes
}

func newLabelledSearch(ctx context.Context, g *graph.Graph, sp *spanning, roots []int32, workers int, tm *phaseTimes) (*labelledSearch, error) {
	t0 := time.Now()
	defer func() { tm.candidates += time.Since(t0) }()
	cs, err := buildCandidatesCtx(ctx, g, roots, workers)
	if err != nil {
		return nil, err
	}
	return &labelledSearch{cs: cs, ls: newLabelState(cs, sp), tm: tm}, nil
}

// next relabels every tree against s, scans for the first cycle with
// <C, s> = 1 and removes it from play. Both passes run on the calling
// goroutine at every worker count: a phase is tens of microseconds of
// cache-resident work, less than a fan-out costs (DESIGN.md §7).
func (l *labelledSearch) next(_ context.Context, s *bitvec.Vector) (edges []int32, ops int64, ok bool, err error) {
	t0 := time.Now()
	l.ls.relabel(s)
	t1 := time.Now()
	hit, ops := l.ls.scan()
	if hit >= 0 {
		edges = l.cs.cycleEdges(l.ls.cands[hit])
		l.ls.remove(hit)
	}
	l.tm.labels += t1.Sub(t0)
	l.tm.scan += time.Since(t1)
	return edges, ops, hit >= 0, nil
}
