package mcb

import (
	"context"

	"repro/internal/bitvec"
	"repro/internal/graph"
)

// HortonMCB is Horton's original algorithm [18]: generate the candidate
// cycles from every shortest path tree, sort by weight, and greedily keep
// each cycle that is linearly independent (GF(2) Gaussian elimination) of
// those already kept. By the matroid greedy theorem this yields a minimum
// weight basis of the cycle space. It is the paper's historical baseline;
// at O(f·candidates·f/64) it is far slower than De Pina on large graphs and
// serves here as an independent correctness oracle and an ablation point.
//
// When useEar is set the Lemma 3.1 reduction is applied first, as in
// Compute.
func HortonMCB(g *graph.Graph, useEar bool, seed uint64) *Result {
	if seed == 0 {
		seed = 0x517cc1b727220a95
	}
	// The background context never cancels, the only way the solve fails.
	total, _ := solveComponents(context.Background(), g, useEar, seed, hortonCore)
	return total
}

func hortonCore(ctx context.Context, g *graph.Graph) (cycles [][]int32, res *Result, err error) {
	res = &Result{}
	sp := buildSpanning(g)
	f := sp.dim()
	res.Dim = f
	if f == 0 {
		return nil, res, nil
	}
	// Horton's formulation roots a tree at every vertex.
	var roots []int32
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		roots = append(roots, v)
	}
	cs, err := buildCandidatesCtx(ctx, g, roots, 1)
	if err != nil {
		return nil, nil, err
	}
	res.TreeOps = cs.TreeOps
	res.NumRoots = len(roots)
	res.NumCandidates = len(cs.cands)
	res.RejectedCandidates = int(cs.Rejected)

	// Greedy independence via incremental Gaussian elimination with a
	// pivot-to-row map: a candidate vector is repeatedly reduced by the row
	// owning its lowest set bit; if it survives non-zero it claims that
	// pivot, otherwise it is dependent.
	pivotRow := make([]*bitvec.Vector, f)
	rank := 0
	tryAdd := func(vecEdges []int32) bool {
		v := sp.vector(vecEdges)
		for {
			p := v.FirstOne()
			if p < 0 {
				return false
			}
			if pivotRow[p] == nil {
				pivotRow[p] = v
				rank++
				return true
			}
			res.SearchOps += int64(f+63) / 64
			v.Xor(pivotRow[p])
		}
	}
	for _, c := range cs.cands {
		if rank == f {
			break
		}
		ce := cs.cycleEdges(c)
		if tryAdd(ce) {
			cycles = append(cycles, ce)
		}
	}
	// The candidate set misses part of the space only on pathological tie
	// patterns; complete the basis with fundamental cycles so the result is
	// always a basis.
	for i := 0; i < f && rank < f; i++ {
		fc := sp.fundamentalCycle(sp.nontree[i])
		if tryAdd(fc) {
			res.Fallbacks++
			cycles = append(cycles, fc)
		}
	}
	return cycles, res, nil
}
