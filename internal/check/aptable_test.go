package check

import (
	"math"
	"testing"

	"repro/internal/apsp"
	"repro/internal/datasets"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/sssp"
)

// referenceAPTable is the articulation table as the oracle built it before
// the forest walk: a clique per block over its cut vertices, weighted by
// the in-block distances (the cut listed first in BlockCuts as the query's
// source), and one heap Dijkstra per cut vertex over that graph. It
// searches where the walk follows the forced route, so it is the
// independent reference for buildAPTable.
func referenceAPTable(o *apsp.Oracle) []graph.Weight {
	a := o.NumArticulation()
	b := graph.NewBuilder(a)
	for bi := range o.Blocks {
		cuts := o.BCT.BlockCuts[bi]
		for i := range cuts {
			for j := i + 1; j < len(cuts); j++ {
				if w := o.QueryParent(int32(bi), o.BCT.CutVertices[cuts[i]], o.BCT.CutVertices[cuts[j]]); w < apsp.Inf {
					b.AddEdge(cuts[i], cuts[j], w)
				}
			}
		}
	}
	cliques := b.Build()
	ref := make([]graph.Weight, a*a)
	sc := sssp.NewScratch(a)
	for s := 0; s < a; s++ {
		sssp.DistancesOnly(cliques, int32(s), ref[s*a:(s+1)*a], sc)
	}
	return ref
}

// forestOddball is one graph holding every degenerate forest shape at
// once: an articulation point on three blocks with a bridge tail behind
// one of them, a self-loop block on a cut vertex, a second component of
// two blocks, and an isolated vertex.
func forestOddball() *graph.Graph {
	tri := func(a, b, c int32) []graph.Edge {
		return []graph.Edge{{U: a, V: b, W: 2}, {U: b, V: c, W: 3}, {U: c, V: a, W: 4}}
	}
	var es []graph.Edge
	es = append(append(append(es, tri(0, 1, 2)...), tri(0, 3, 4)...), tri(0, 5, 6)...)
	es = append(es, graph.Edge{U: 6, V: 7, W: 1}, graph.Edge{U: 7, V: 8, W: 5}, graph.Edge{U: 7, V: 7, W: 9})
	es = append(es, tri(9, 10, 11)...)
	es = append(es, graph.Edge{U: 11, V: 12, W: 6})
	return graph.FromEdges(14, es) // vertex 13 is isolated
}

// TestAPTableMatchesCliqueDijkstra holds the forest-walk AP table to the
// construction it replaced. On integral weights every rounding of the same
// path is exact and the two tables are Float64bits-equal. On non-integral
// weights the bound is one-sided: the forced chain is one of the routes
// Dijkstra minimised over and float addition is monotone, so a walk entry
// never reads below the reference (the lower bound is exact, not a
// tolerance); it may read above it by the rounding Dijkstra saved when it
// routed s → x → c through a third cut x of one block. A stores each pair
// once, the entry (s, c ≥ s) of s's walk, read here through Query between
// the two cut vertices and held to the reference's row s.
func TestAPTableMatchesCliqueDijkstra(t *testing.T) {
	integral := append(Corpus(), pathOddballs()...)
	integral = append(integral, NamedGraph{"forest-oddball", forestOddball()})
	var float []NamedGraph
	for _, ng := range integral {
		float = append(float, NamedGraph{ng.Name + "-float", floatWeights(ng.G, 0xf10a7)})
	}
	for seed := uint64(1); seed <= 40; seed++ {
		g := RandomGraph(seed, 18)
		integral = append(integral, NamedGraph{"random", g})
		float = append(float, NamedGraph{"random-float", floatWeights(g, seed)})
	}
	cfg := gen.Config{MaxWeight: 7}
	for seed := uint64(1); seed <= 20; seed++ {
		g := gen.CycleNecklace(3+int(seed%3), 3+int(seed%2), cfg, gen.NewRNG(seed))
		float = append(float, NamedGraph{"necklace-float", floatWeights(g, seed*31)})
	}
	if !testing.Short() {
		spec, err := datasets.ByName("cond_mat_2003")
		if err != nil {
			t.Fatal(err)
		}
		g := spec.Generate(0.08, 1)
		integral = append(integral, NamedGraph{"blocks_m", g})
		float = append(float, NamedGraph{"blocks_m-float", floatWeights(g, 1)})
	}

	entries, moved := 0, 0
	sweep := func(graphs []NamedGraph, exact bool) {
		for _, ng := range graphs {
			o := apsp.NewOracle(ng.G)
			ref := referenceAPTable(o)
			cuts := o.BCT.CutVertices
			a := len(cuts)
			for s := range a {
				for c := s; c < a; c++ {
					got, want := o.Query(cuts[s], cuts[c]), ref[s*a+c]
					entries++
					if math.Float64bits(got) == math.Float64bits(want) {
						continue
					}
					moved++
					if exact || want >= apsp.Inf || got < want || got > want*(1+1e-12) {
						t.Fatalf("%s: A[%d,%d] = %v (%016x), clique Dijkstra %v (%016x)", ng.Name,
							s, c, got, math.Float64bits(got), want, math.Float64bits(want))
					}
				}
			}
		}
	}
	sweep(integral, true)
	if entries == 0 {
		t.Fatal("no articulation-table entry compared")
	}
	sweep(float, false)
	t.Logf("%d entries, %d above the reference by rounding", entries, moved)
}
