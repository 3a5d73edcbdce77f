package mcb

import (
	"repro/internal/bitvec"
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

// vectorOf builds the E'-restricted incidence vector of a selected
// candidate cycle, needed for the witness updates of Algorithm 2.
func (ls *labelState) vectorOf(c candidate) *bitvec.Vector {
	v := bitvec.New(ls.sp.dim())
	for _, eid := range ls.cs.cycleEdges(c) {
		if idx := ls.sp.nontreeIndex[eid]; idx >= 0 {
			v.Flip(int(idx))
		}
	}
	return v
}
