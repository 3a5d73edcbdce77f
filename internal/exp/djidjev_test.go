package exp

import (
	"testing"

	"repro/internal/apsp"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/sssp"
)

// djidjevGraphs are the shapes the apsp package tests its oracles on:
// rings, grids, planar ears, degree-2 chains, pendants, chained blocks
// and a disconnected graph.
func djidjevGraphs() map[string]*graph.Graph {
	cfg := gen.Config{MaxWeight: 10}
	rng := gen.NewRNG(42)
	gs := map[string]*graph.Graph{
		"ring":        gen.Ring(12, cfg, rng),
		"grid":        gen.Grid(5, 6, cfg, rng),
		"complete":    gen.Complete(7, cfg, rng),
		"planar-ears": gen.PlanarEars(40, 3, cfg, rng),
		"gnm":         gen.GNM(30, 45, cfg, rng),
		"pa":          gen.PreferentialAttachment(30, 2, cfg, rng),
	}
	gs["subdivided"] = gen.Subdivide(gen.GNM(15, 25, cfg, rng), 0.7, 3, cfg, rng)
	gs["pendants"] = gen.AttachPendants(gen.GNM(20, 30, cfg, rng), 10, 3, cfg, rng)
	blocks := []*graph.Graph{
		gen.Ring(8, cfg, rng),
		gen.GNM(10, 16, cfg, rng),
		gen.Grid(3, 4, cfg, rng),
		gen.Ring(5, cfg, rng),
	}
	gs["chained-blocks"] = gen.ChainBlocks(blocks, cfg, rng)
	gs["chained-subdiv"] = gen.Subdivide(gs["chained-blocks"], 0.5, 2, cfg, rng)
	two := graph.NewBuilder(9)
	two.AddEdge(0, 1, 3)
	two.AddEdge(1, 2, 1)
	two.AddEdge(2, 0, 2)
	two.AddEdge(3, 4, 5)
	two.AddEdge(4, 5, 1)
	two.AddEdge(5, 3, 2)
	two.AddEdge(6, 7, 4) // bridge pair + isolated vertex 8
	gs["disconnected"] = two.Build()
	return gs
}

func TestDjidjevMatchesReference(t *testing.T) {
	for name, g := range djidjevGraphs() {
		n := int32(g.NumVertices())
		for _, k := range []int{1, 2, 4} {
			d := NewDjidjev(g, k, 2)
			for u := int32(0); u < n; u++ {
				ref := sssp.BellmanFord(g, u)
				for v := int32(0); v < n; v++ {
					if got := d.Query(u, v); got != ref[v] {
						t.Fatalf("djidjev/%s k=%d: d(%d,%d) = %v, want %v", name, k, u, v, got, ref[v])
					}
				}
			}
		}
	}
}

func TestDjidjevRowMatchesQuery(t *testing.T) {
	cfg := gen.Config{MaxWeight: 5}
	rng := gen.NewRNG(3)
	g := gen.PlanarEars(60, 2, cfg, rng)
	d := NewDjidjev(g, 4, 1)
	n := g.NumVertices()
	row := make([]graph.Weight, n)
	for u := int32(0); u < int32(n); u++ {
		d.Row(u, row)
		for v := int32(0); v < int32(n); v++ {
			if row[v] != d.Query(u, int32(v)) {
				t.Fatalf("row/query mismatch at (%d,%d): %v vs %v", u, v, row[v], d.Query(u, int32(v)))
			}
		}
	}
}

// TestDjidjevIsolatedPair: two vertices and no edge are two parts with no
// boundary between them, so the pair is unreachable.
func TestDjidjevIsolatedPair(t *testing.T) {
	if d := NewDjidjev(graph.FromEdges(2, nil), 2, 1).Query(0, 1); d < apsp.Inf {
		t.Fatalf("djidjev isolated pair %v", d)
	}
}
