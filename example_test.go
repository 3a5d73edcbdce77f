package repro_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"repro"
)

// ExampleShortestPaths builds a weighted graph with a degree-2 chain and
// queries distances and an explicit route through the oracle.
func ExampleShortestPaths() {
	b := repro.NewGraphBuilder(5)
	b.AddEdge(0, 1, 1) // chain 0-1-2
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 3, 1)
	b.AddEdge(3, 0, 5) // long way back
	b.AddEdge(3, 4, 2) // pendant
	g := b.Build()

	oracle, _ := repro.ShortestPaths(g, 1)
	fmt.Println("d(0,4) =", oracle.Query(0, 4))
	fmt.Println("route:", oracle.Path(0, 4))
	// Output:
	// d(0,4) = 5
	// route: [0 1 2 3 4]
}

// ExampleSaveOracle is the build-once/serve-many loop: build an oracle,
// persist it as a snapshot, restore it in a "serving" process with zero
// rebuild work, and answer queries through the batched engine.
func ExampleSaveOracle() {
	b := repro.NewGraphBuilder(5)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 3, 1)
	b.AddEdge(3, 0, 5)
	b.AddEdge(3, 4, 2)
	g := b.Build()

	dir, _ := os.MkdirTemp("", "oracle")
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "oracle.snap")

	oracle, _ := repro.ShortestPaths(g, 1)
	if err := repro.SaveOracle(path, oracle); err != nil {
		fmt.Println("save:", err)
		return
	}

	// ...later, in a serving process: load instead of rebuilding.
	loaded, err := repro.LoadOracle(path)
	if err != nil {
		fmt.Println("load:", err)
		return
	}
	engine := repro.NewQueryEngine(loaded, repro.EngineConfig{})
	d, _ := engine.Query(context.Background(), 0, 4)
	fmt.Println("d(0,4) =", d)
	fmt.Println("reachable:", !repro.Unreachable(d))
	// Output:
	// d(0,4) = 5
	// reachable: true
}

// ExampleMinimumCycleBasis computes the two independent cycles of a theta
// graph (two vertices joined by three paths).
func ExampleMinimumCycleBasis() {
	b := repro.NewGraphBuilder(5)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 4, 1) // path A, weight 2
	b.AddEdge(0, 2, 2)
	b.AddEdge(2, 4, 2) // path B, weight 4
	b.AddEdge(0, 3, 4)
	b.AddEdge(3, 4, 4) // path C, weight 8
	g := b.Build()

	basis, _ := repro.MinimumCycleBasis(g)
	fmt.Println("cycles:", len(basis.Cycles))
	fmt.Println("total weight:", basis.TotalWeight)
	// Output:
	// cycles: 2
	// total weight: 16
}

// ExampleReduceGraph shows the preprocessing stage on its own: a ring with
// one chord keeps only the chord's endpoints.
func ExampleReduceGraph() {
	b := repro.NewGraphBuilder(6)
	for i := int32(0); i < 6; i++ {
		b.AddEdge(i, (i+1)%6, 1)
	}
	b.AddEdge(0, 3, 1) // chord
	g := b.Build()

	red, _ := repro.ReduceGraph(g)
	fmt.Println("kept:", red.R.NumVertices(), "of", g.NumVertices())
	fmt.Println("chains:", len(red.Chains))
	// Output:
	// kept: 2 of 6
	// chains: 3
}
