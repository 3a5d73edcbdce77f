// Quickstart: build a small weighted graph, inspect its ear decomposition,
// answer shortest-path queries through the reduced-graph oracle, and
// compute its minimum weight cycle basis — the two problems of the paper
// in ~60 lines.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	// A graph with an obvious chain structure: two hubs (0 and 4) joined
	// by three paths, one of which runs through degree-2 vertices 1-2-3.
	//
	//        1 --- 2 --- 3
	//       /             \
	//      0 ------ 5 ----- 4
	//       \              /
	//        6 -----------
	b := repro.NewGraphBuilder(7)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 3, 1)
	b.AddEdge(3, 4, 1)
	b.AddEdge(0, 5, 2)
	b.AddEdge(5, 4, 2)
	b.AddEdge(0, 6, 3)
	b.AddEdge(6, 4, 3)
	g := b.Build()

	// The ear decomposition exists because the graph is biconnected.
	ears, err := repro.EarDecompose(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ear decomposition: %d ears\n", len(ears))
	for i, e := range ears {
		fmt.Printf("  P%d: vertices %v\n", i, e.Vertices)
	}

	// The reduced graph keeps only vertices of degree >= 3 (the two hubs);
	// all five degree-2 vertices are contracted into weighted edges.
	red, err := repro.ReduceGraph(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reduced graph: %d of %d vertices kept, %d chains\n",
		red.R.NumVertices(), g.NumVertices(), red.NumChains())

	// All-pairs shortest paths: processing runs on the reduced graph only;
	// queries for removed vertices go through their chain anchors.
	oracle, err := repro.ShortestPaths(g, 0)
	if err != nil {
		log.Fatal(err)
	}
	for _, q := range [][2]int32{{0, 4}, {2, 6}, {1, 3}} {
		fmt.Printf("d(%d, %d) = %g\n", q[0], q[1], oracle.Query(q[0], q[1]))
	}

	// Minimum weight cycle basis: the cycle space has dimension
	// m - n + 1 = 2; the two cheapest independent cycles are chosen.
	basis, err := repro.MinimumCycleBasis(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MCB: %d cycles, total weight %g\n", len(basis.Cycles), basis.TotalWeight)
	for i, c := range basis.Cycles {
		fmt.Printf("  cycle %d: weight %g, %d edges\n", i, c.Weight, len(c.Edges))
	}
}
