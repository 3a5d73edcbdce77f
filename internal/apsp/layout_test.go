package apsp

import (
	"reflect"
	"testing"

	"repro/internal/datasets"
	"repro/internal/gen"
	"repro/internal/graph"
)

// TestBlockVertsAreInducedOrder pins the local vertex order stored S^r
// rows are indexed in: BlockVerts[b] is graph.InducedByEdges' vertex list
// for the component, and the block graph mapped through the vertex index
// is that subgraph's graph, edge for edge. Files written before the lists
// moved to the block-cut tree load correctly only while both hold. The
// corpus has singleton self-loop blocks, parallel edges, isolated
// vertices and a disconnected graph.
func TestBlockVertsAreInducedOrder(t *testing.T) {
	cfg := gen.Config{MaxWeight: 9}
	rng := gen.NewRNG(0xb10c)
	graphs := testGraphs(t)
	graphs["multigraph"] = gen.Multigraph(12, 20, 6, 4, cfg, rng)
	graphs["loop-flower"] = gen.LoopFlower(4, 3, cfg, rng)
	graphs["self-loops"] = graph.FromEdges(6, []graph.Edge{
		{U: 0, V: 0, W: 1}, {U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 3}, {U: 2, V: 2, W: 4},
		{U: 2, V: 2, W: 5}, {U: 2, V: 3, W: 1}, {U: 3, V: 1, W: 2}, {U: 3, V: 1, W: 7},
	}) // vertex 4 and 5 isolated
	spec, err := datasets.ByName("cond_mat_2003")
	if err != nil {
		t.Fatal(err)
	}
	graphs["cond_mat_2003"] = spec.Generate(0.02, 1)
	for name, g := range graphs {
		o := NewOracle(g)
		if len(o.BCT.BlockVerts) != len(o.Dec.Components) {
			t.Fatalf("%s: %d vertex lists for %d blocks", name, len(o.BCT.BlockVerts), len(o.Dec.Components))
		}
		for b, comp := range o.Dec.Components {
			sub := graph.InducedByEdges(g, comp)
			if !reflect.DeepEqual(o.BCT.BlockVerts[b], sub.ToParentVertex) {
				t.Fatalf("%s: block %d lists %v, InducedByEdges %v", name, b, o.BCT.BlockVerts[b], sub.ToParentVertex)
			}
			if got := o.blockGraph(b); !reflect.DeepEqual(got, sub.G) || o.Blocks[b].Red.Validate(sub.G) != nil {
				t.Fatalf("%s: block %d graph %v, InducedByEdges %v", name, b, got.Edges(), sub.G.Edges())
			}
		}
		if err := o.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
