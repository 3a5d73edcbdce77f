package mcb

import (
	"context"
	"time"

	"repro/internal/bitvec"
	"repro/internal/ds"
	"repro/internal/graph"
	"repro/internal/par"
)

// labelState holds the per-phase node labels l_z(u) for every root tree
// (Algorithm 3): l_z(u) is the GF(2) inner product of the witness S_curr
// with the tree path from z to u, restricted to the global non-tree edge
// set E'. Computing these labels is the paper's dominant phase (~76% of
// runtime, Section 3.5).
type labelState struct {
	cs *candidateSet
	sp *spanning
	// labels[ri][v] is l_z(u) for root index ri.
	labels [][]bool
}

func newLabelState(cs *candidateSet, sp *spanning) *labelState {
	ls := &labelState{cs: cs, sp: sp}
	ls.labels = make([][]bool, len(cs.roots))
	n := cs.g.NumVertices()
	for i := range ls.labels {
		ls.labels[i] = make([]bool, n)
	}
	return ls
}

// computeTree recomputes the labels of one tree against the current
// witness, one op per reachable vertex. This is the per-work-unit kernel
// the pool dispatches: a single root-to-leaves pass in level order (parents
// precede children in t.Order), merging Algorithm 3's two passes — c_z(u)
// is folded directly into the l update since each c_z(u) depends only on
// u's parent edge.
func (ls *labelState) computeTree(ri int, s *bitvec.Vector) {
	t := ls.cs.trees[ri]
	lab := ls.labels[ri]
	lab[t.Root] = false
	for _, v := range t.Order[1:] {
		c := false
		if idx := ls.sp.nontreeIndex[t.ParentEdge[v]]; idx >= 0 {
			c = s.Get(int(idx))
		}
		lab[v] = lab[t.Parent[v]] != c
	}
}

// orthogonal evaluates <C_ze, S_curr> for a candidate in O(1) using the
// labels: l_z(u) ⊕ l_z(v) ⊕ S_curr(e) when e ∈ E', or l_z(u) ⊕ l_z(v)
// otherwise (Section 3.3.2). It returns true when the product is 1.
func (ls *labelState) nonOrthogonal(c candidate, s *bitvec.Vector) bool {
	idx := ls.sp.nontreeIndex[c.edge]
	if c.root < 0 { // self-loop: the cycle is the edge itself
		return idx >= 0 && s.Get(int(idx))
	}
	e := ls.cs.g.Edge(c.edge)
	lab := ls.labels[c.root]
	val := lab[e.U] != lab[e.V]
	if idx >= 0 && s.Get(int(idx)) {
		val = !val
	}
	return val
}

// scanBatch is the candidate-scan batch of Section 3.3.2: the chunk size
// of the candidate store and, per worker, of the window a parallel scan
// evaluates together.
const scanBatch = 256

// labelledSearch is the Mehlhorn–Michail labelled-tree search (Section
// 3.3), the paper's production path: shortest path trees and the
// weight-sorted candidate cycles are built once, and each phase relabels
// the trees against the witness and scans the candidates still in the
// store for the first non-orthogonal one.
type labelledSearch struct {
	cs *candidateSet
	ls *labelState
	// store holds indices into the weight-sorted candidate slice in the
	// paper's hybrid chunked list, so removals stay O(1) and scans linear.
	store   *ds.ChunkedList
	workers int
	tm      *phaseTimes

	// Scan window: the batch every worker evaluates together. The scratch
	// lives across phases; the window is capped so it stays cache-resident.
	window int
	vals   []uint32
	curs   []ds.Cursor
	hits   []bool
}

func newLabelledSearch(ctx context.Context, g *graph.Graph, sp *spanning, roots []int32, workers int, tm *phaseTimes) (*labelledSearch, error) {
	t0 := time.Now()
	cs, err := buildCandidatesCtx(ctx, g, roots, workers)
	tm.candidates += time.Since(t0)
	if err != nil {
		return nil, err
	}
	l := &labelledSearch{cs: cs, ls: newLabelState(cs, sp), store: ds.NewChunkedList(scanBatch), workers: workers, tm: tm}
	for i := range cs.cands {
		l.store.Append(uint32(i))
	}
	if workers > 1 {
		l.window = scanBatch * workers
		l.vals = make([]uint32, 0, l.window)
		l.curs = make([]ds.Cursor, 0, l.window)
		l.hits = make([]bool, l.window)
	}
	return l, nil
}

// next relabels every tree against s, scans the live candidates in weight
// order for the first cycle with <C, s> = 1 and removes it from the store.
// ops is that candidate's position in scan order — live entries up to and
// including the hit — so the work accounting is the same at any worker
// count.
func (l *labelledSearch) next(ctx context.Context, s *bitvec.Vector) (edges []int32, ops int64, ok bool, err error) {
	// Phase 1: recompute all tree labels against S_i, one tree per work
	// unit on the pool.
	t0 := time.Now()
	err = par.ParallelForCtx(ctx, l.workers, len(l.cs.roots), func(_, ri int) {
		l.ls.computeTree(ri, s)
	})
	l.tm.labels += time.Since(t0)
	if err != nil {
		return nil, 0, false, err
	}

	// Phase 2: scan candidates in weight order, in batches.
	var chosen candidate
	t0 = time.Now()
	if l.workers > 1 {
		chosen, ops, ok, err = l.scanWindowed(ctx, s)
	} else {
		chosen, ops, ok = l.scanSequential(s)
	}
	l.tm.scan += time.Since(t0)
	if err != nil || !ok {
		return nil, ops, false, err
	}
	return l.cs.cycleEdges(chosen), ops, true, nil
}

// scanSequential is the early-exit scan: one candidate at a time until
// the first hit.
func (l *labelledSearch) scanSequential(s *bitvec.Vector) (chosen candidate, scanned int64, found bool) {
	cur, hit := l.store.Scan(func(idx uint32) bool {
		scanned++
		if l.ls.nonOrthogonal(l.cs.cands[idx], s) {
			chosen = l.cs.cands[idx]
			return false
		}
		return true
	})
	if hit {
		l.store.Remove(cur)
	}
	return chosen, scanned, hit
}

// scanWindowed makes the batch of Section 3.3.2 real: a window of live
// candidates is carved out of the store, every worker tests a contiguous
// chunk of it, and the earliest hit in store order wins — the same
// candidate, at the same scan position, the sequential scan selects.
func (l *labelledSearch) scanWindowed(ctx context.Context, s *bitvec.Vector) (chosen candidate, scanned int64, found bool, err error) {
	var cur ds.Cursor
	for {
		if err := ctx.Err(); err != nil {
			return chosen, scanned, false, err
		}
		var last ds.Cursor
		l.vals, l.curs, last = l.store.BatchFrom(cur, l.window, l.vals[:0], l.curs[:0])
		vals := l.vals
		if len(vals) == 0 {
			return chosen, scanned, false, nil
		}
		hits := l.hits[:len(vals)]
		chunk := (len(vals) + l.workers - 1) / l.workers
		par.ParallelFor(l.workers, (len(vals)+chunk-1)/chunk, func(_, w int) {
			lo := w * chunk
			hi := min(lo+chunk, len(vals))
			for k := lo; k < hi; k++ {
				hits[k] = l.ls.nonOrthogonal(l.cs.cands[vals[k]], s)
			}
		})
		for k := range hits {
			if hits[k] {
				l.store.Remove(l.curs[k])
				return l.cs.cands[vals[k]], scanned + int64(k) + 1, true, nil
			}
		}
		scanned += int64(len(vals))
		if len(vals) < l.window {
			return chosen, scanned, false, nil
		}
		cur = last
	}
}
