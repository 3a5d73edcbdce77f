package apsp

import (
	"context"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// benchBlocksGraph is the multi-block benchmark fixture: chained blocks
// with injected degree-2 chains plus pendant trees, so its vertices are
// both articulation points and regular vertices of blocks large and small.
func benchBlocksGraph() *graph.Graph {
	cfg := gen.Config{MaxWeight: 20}
	rng := gen.NewRNG(99)
	g := gen.ChainBlocks([]*graph.Graph{
		gen.PlanarEars(120, 4, cfg, rng),
		gen.GNM(80, 160, cfg, rng),
		gen.Ring(60, cfg, rng),
		gen.TriangulatedGrid(8, 8, cfg, rng),
	}, cfg, rng)
	return gen.AttachPendants(gen.Subdivide(g, 0.4, 2, cfg, rng), 40, 3, cfg, rng)
}

// BenchmarkOracleRow measures one whole-graph row through the stitch
// kernel on the multi-block fixture, cycling through every source. CI
// gates it at 0 allocs/op: the kernel's scratch is pooled. (No custom
// metrics: benchgate parses ns/op directly followed by B/op.)
func BenchmarkOracleRow(b *testing.B) {
	o := NewOracle(benchBlocksGraph())
	n := int32(o.NumVertices())
	row := make([]graph.Weight, n)
	o.Row(0, row) // size the pooled scratch before measuring
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Row(int32(i)%n, row)
	}
}

// benchWalk keeps BenchmarkOraclePath's result live.
var benchWalk []int32

// BenchmarkOraclePath measures PathChecked over random cross-block pairs
// of the multi-block fixture — the forest chain plus one in-block greedy
// walk per hop — in both table precisions, with integral weights and with
// every weight divided by 3. The ÷3 Compact32 case is the one a tolerance
// too tight for float32 tables sends into the Dijkstra fallback on about
// every other hop. Recorded in CI, not gated.
func BenchmarkOraclePath(b *testing.B) {
	integral := benchBlocksGraph()
	thirds := integral.Edges()
	for i := range thirds {
		thirds[i].W /= 3
	}
	for _, w := range []struct {
		name string
		g    *graph.Graph
	}{{"integral", integral}, {"thirds", graph.FromEdges(integral.NumVertices(), thirds)}} {
		for _, compact := range []bool{false, true} {
			o, err := NewOracleOpts(context.Background(), w.g, Options{Compact32: compact})
			if err != nil {
				b.Fatal(err)
			}
			n := o.NumVertices()
			rng := gen.NewRNG(7)
			var pairs [][2]int32
			for len(pairs) < 1024 {
				u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
				if o.BCT.BlockOf[u] != o.BCT.BlockOf[v] && o.Query(u, v) < Inf {
					pairs = append(pairs, [2]int32{u, v})
				}
			}
			name := w.name + "/float64"
			if compact {
				name = w.name + "/compact32"
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					p := pairs[i%len(pairs)]
					walk, err := o.PathChecked(p[0], p[1])
					if err != nil {
						b.Fatal(err)
					}
					benchWalk = walk
				}
			})
		}
	}
}
