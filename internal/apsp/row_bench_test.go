package apsp

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// BenchmarkOracleRow measures one whole-graph row through the stitch
// kernel on a multi-block graph — chained blocks with injected degree-2
// chains plus pendant trees, so the sources it cycles through are both
// articulation points and regular vertices. CI gates it at 0 allocs/op:
// the kernel's scratch is pooled. (No custom metrics: benchgate parses
// ns/op directly followed by B/op.)
func BenchmarkOracleRow(b *testing.B) {
	cfg := gen.Config{MaxWeight: 20}
	rng := gen.NewRNG(99)
	g := gen.ChainBlocks([]*graph.Graph{
		gen.PlanarEars(120, 4, cfg, rng),
		gen.GNM(80, 160, cfg, rng),
		gen.Ring(60, cfg, rng),
		gen.TriangulatedGrid(8, 8, cfg, rng),
	}, cfg, rng)
	g = gen.AttachPendants(gen.Subdivide(g, 0.4, 2, cfg, rng), 40, 3, cfg, rng)
	o := NewOracle(g)
	n := int32(o.NumVertices())
	row := make([]graph.Weight, n)
	o.Row(0, row) // size the pooled scratch before measuring
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Row(int32(i)%n, row)
	}
}
