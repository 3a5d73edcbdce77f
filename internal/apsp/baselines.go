package apsp

import (
	"context"

	"repro/internal/ear"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/sssp"
)

// Naive computes the full n×n table with one Dijkstra per source on the
// whole graph — the unstructured reference point. It returns the table and
// the total relaxation work.
func Naive(g *graph.Graph, workers int) ([]graph.Weight, int64) {
	n := g.NumVertices()
	out := make([]graph.Weight, n*n)
	if workers < 1 {
		workers = 1
	}
	scratch := make([]*sssp.Scratch, workers)
	relax := make([]int64, workers)
	for i := range scratch {
		scratch[i] = sssp.NewScratch(n)
	}
	par.ParallelFor(workers, n, func(w, s int) {
		relax[w] += sssp.DistancesOnly(g, int32(s), out[s*n:(s+1)*n], scratch[w])
	})
	var total int64
	for _, r := range relax {
		total += r
	}
	return out, total
}

// FloydWarshall computes the n×n table with the classic cubic recurrence,
// blocked over k for cache locality (the structure of the Buluc/Katz/
// Matsumoto GPU implementations surveyed in the related work). Used as a
// reference for tests and small-graph benchmarks.
func FloydWarshall(g *graph.Graph) []graph.Weight {
	n := g.NumVertices()
	d := make([]graph.Weight, n*n)
	for i := range d {
		d[i] = Inf
	}
	for i := 0; i < n; i++ {
		d[i*n+i] = 0
	}
	for _, e := range g.Edges() {
		if e.U != e.V && e.W < d[int(e.U)*n+int(e.V)] {
			d[int(e.U)*n+int(e.V)] = e.W
			d[int(e.V)*n+int(e.U)] = e.W
		}
	}
	for k := 0; k < n; k++ {
		rowK := d[k*n : (k+1)*n]
		for i := 0; i < n; i++ {
			dik := d[i*n+k]
			if dik >= Inf {
				continue
			}
			rowI := d[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				if nd := dik + rowK[j]; nd < rowI[j] {
					rowI[j] = nd
				}
			}
		}
	}
	return d
}

// NewFlatAPSP builds an EarAPSP-shaped result *without* ear reduction: the
// "reduced" graph is the graph itself (identity reduction) and the same
// processing phase (fillDijkstra) fills every vertex's row. This is the
// within-block solver of the Banerjee baseline, and the "w/o
// ear-decomposition" arm of the paper's ablations (Table 2 columns).
func NewFlatAPSP(g *graph.Graph, workers int) *EarAPSP {
	a := newEarAPSP(g, identityReduction(g))
	_ = a.fillDijkstra(context.Background(), workers) // a background context never cancels
	return a
}

// identityReduction wraps g as an ear.Reduced that removes nothing.
func identityReduction(g *graph.Graph) *ear.Reduced {
	n := g.NumVertices()
	red := &ear.Reduced{
		R:          g,
		N:          n,
		M:          g.NumEdges(),
		KeptToOrig: make([]int32, n),
		OrigToKept: make([]int32, n),
		ChainOf:    make([]int32, n),
		PosOf:      make([]int32, n),
	}
	for v := 0; v < n; v++ {
		red.KeptToOrig[v] = int32(v)
		red.OrigToKept[v] = int32(v)
		red.ChainOf[v] = -1
		red.PosOf[v] = -1
	}
	return red
}

// NewBanerjee builds the Banerjee et al. [4] baseline: the same block-cut
// tree pipeline as the Oracle, but with per-source Dijkstra on the *full*
// biconnected components (no ear reduction). The paper's pendant peel is a
// special case of the block decomposition — pendant edges become
// single-edge blocks whose tables are trivial — so the measured difference
// against NewOracle isolates exactly the contribution of the ear
// decomposition, which is how the paper frames the comparison.
func NewBanerjee(g *graph.Graph, workers int) *Oracle {
	o, _ := newOracle(context.Background(), g, workers, func(_ context.Context, sub *graph.Graph, w int) (*EarAPSP, error) {
		return NewFlatAPSP(sub, w), nil
	})
	return o
}
