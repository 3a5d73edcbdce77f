package bc

import (
	"repro/internal/bcc"
	"repro/internal/graph"
	"repro/internal/par"
)

// Decomposed computes exact betweenness centrality through the paper's
// decomposition blueprint, applied to BC the way the companion works
// (Sariyuce et al. [34]; Pachorkar et al.) do: shatter the graph at its
// articulation points, run a *weighted* Brandes within each biconnected
// component, and add the closed-form contribution of pairs separated by
// each articulation point.
//
// Within a block, the copy of an articulation point a represents a plus
// every vertex that lies behind a (outside the block); it carries that
// count as a source/target weight. Shortest path multiplicities outside
// the block cancel in the pair-dependency ratio, so the weighted
// accumulation is exact. Pairs separated by an articulation point always
// pass through it with fraction 1, giving the closed-form correction
// 2·Σ_{i<j} c_i·c_j over the component sizes c_i of G − a.
//
// The per-block work replaces n full-graph Brandes sources with Σ n_i
// block-local sources — the same work saving the paper's APSP derives from
// its block decomposition — and each block is an independent work-unit for
// the parallel runner.
func Decomposed(g *graph.Graph, workers int) *Result {
	n := g.NumVertices()
	if workers < 1 {
		workers = 1
	}
	res := &Result{Scores: make([]float64, n)}
	dec := bcc.Compute(g)
	bct := bcc.BuildBlockCutTree(g, dec)
	subs := dec.Subgraphs(g)

	// Per-subtree original-vertex counts over the rooted block-cut forest:
	// block nodes count their non-articulation vertices, cut nodes count
	// themselves, and children accumulate into parents in reverse BFS
	// order, so the root of a cut node's tree ends up holding the size of
	// the cut vertex's connected component.
	numB := len(subs)
	numC := len(bct.CutVertices)
	vcount := make([]int64, numB+numC)
	for bi, sub := range subs {
		for _, pv := range sub.ToParentVertex {
			if bct.CutIndex[pv] < 0 {
				vcount[bi]++
			}
		}
	}
	for ci := 0; ci < numC; ci++ {
		vcount[numB+ci] = 1
	}
	for i := len(bct.Order) - 1; i >= 0; i-- {
		v := bct.Order[i]
		if p := bct.Parent[v]; p >= 0 {
			vcount[p] += vcount[v]
		}
	}

	// total(a) is cut a's connected component size.
	total := func(ci int32) int64 { return vcount[bct.Root[int32(numB)+ci]] }
	// branch(a, B): for cut a with incident blocks, the branch on block
	// B's side — the size of the component of G−a containing B∖{a}:
	//   vcount[B-subtree]            if parent(B) == a's node
	//   total − 1 − Σ child subtrees if B is a's parent block
	branch := func(ci int32, bi int32) int64 {
		cutNode := int32(numB) + ci
		if bct.Parent[bi] == cutNode {
			return vcount[bi]
		}
		// B is the parent block of a: the branch is everything except a
		// and the subtrees hanging below a.
		return total(ci) - vcount[cutNode]
	}

	// Per-block weighted Brandes, blocks as parallel work-units.
	accs := make([][]float64, workers)
	for w := range accs {
		accs[w] = make([]float64, n)
	}
	states := make([]*state, workers)
	relax := make([]int64, workers)
	par.ParallelFor(workers, numB, func(w, bi int) {
		sub := subs[bi]
		local := sub.G
		ln := local.NumVertices()
		weights := make([]float64, ln)
		for lv, pv := range sub.ToParentVertex {
			if ci := bct.CutIndex[pv]; ci >= 0 {
				weights[lv] = float64(total(ci) - branch(ci, int32(bi)))
			} else {
				weights[lv] = 1
			}
		}
		if states[w] == nil || len(states[w].dist) < ln {
			states[w] = newState(ln)
		}
		st := states[w]
		for s := int32(0); s < int32(ln); s++ {
			relax[w] += st.forward(local, s)
			st.accumulate(s, accs[w], weights, sub.ToParentVertex)
		}
	})
	for w := range accs {
		for v, x := range accs[w] {
			res.Scores[v] += x
		}
		res.Relaxations += relax[w]
	}

	// Articulation corrections: ordered pairs separated by a always route
	// through a with fraction 1.
	for ci := 0; ci < numC; ci++ {
		a := bct.CutVertices[ci]
		var sum, sumSq int64
		for _, bi := range bct.CutBlocks[ci] {
			c := branch(int32(ci), bi)
			sum += c
			sumSq += c * c
		}
		res.Scores[a] += float64(sum*sum - sumSq) // 2·Σ_{i<j} c_i·c_j
	}
	return res
}
