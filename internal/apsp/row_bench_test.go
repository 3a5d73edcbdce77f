package apsp

import (
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

// benchWeights is the multi-block fixture with integral weights, whose
// tables are uint8 and uint16, and with every weight divided by 3, whose
// tables are float64: the benchmarks read one integer kind and the
// widest.
func benchWeights() []struct {
	name string
	g    *graph.Graph
} {
	integral := benchBlocksGraph()
	return []struct {
		name string
		g    *graph.Graph
	}{{"integral", integral}, {"thirds", thirds(integral)}}
}

// BenchmarkOracleRow measures one whole-graph row through the stitch
// kernel on the multi-block fixture, cycling through every source, at
// either weighting. CI gates both at 0 allocs/op: the kernel's scratch is
// pooled. (No custom metrics: benchgate parses ns/op directly followed by
// B/op.)
func BenchmarkOracleRow(b *testing.B) {
	for _, w := range benchWeights() {
		o, row := warmRowOracle(w.g)
		n := int32(o.NumVertices())
		b.Run(w.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				o.Row(int32(i)%n, row)
			}
		})
	}
}

// warmRowOracle is BenchmarkOracleRow's set-up: the oracle on g and a row
// buffer, with the pooled scratch sized.
func warmRowOracle(g *graph.Graph) (*Oracle, []graph.Weight) {
	o := NewOracle(g)
	row := make([]graph.Weight, o.NumVertices())
	o.Row(0, row)
	return o, row
}

// TestOracleRowZeroAllocs is BenchmarkOracleRow's 0 allocs/op as a test,
// at both weightings.
func TestOracleRowZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not meaningful under -race")
	}
	for _, w := range benchWeights() {
		o, row := warmRowOracle(w.g)
		n := int32(o.NumVertices())
		src := int32(0)
		if allocs := testing.AllocsPerRun(50, func() {
			o.Row(src, row)
			src = (src + 1) % n
		}); allocs != 0 {
			t.Fatalf("%s: Oracle.Row with warm scratch allocates %v times per row", w.name, allocs)
		}
	}
}

// benchWalk keeps BenchmarkOraclePath's result live.
var benchWalk []int32

// BenchmarkOraclePath measures PathChecked over random cross-block pairs
// of the multi-block fixture — the forest chain plus one in-block greedy
// walk per hop — with integral weights and with every weight divided by
// 3. The ÷3 case is the one a tolerance too tight for the table's float
// sums sends into the Dijkstra fallback. CI gates its allocs/op: the walk
// appends into one slice, so a per-segment copy would show.
func BenchmarkOraclePath(b *testing.B) {
	for _, w := range benchWeights() {
		o := NewOracle(w.g)
		n := o.NumVertices()
		rng := gen.NewRNG(7)
		var pairs [][2]int32
		for len(pairs) < 1024 {
			u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
			if o.BCT.BlockOf[u] != o.BCT.BlockOf[v] && o.Query(u, v) < Inf {
				pairs = append(pairs, [2]int32{u, v})
			}
		}
		b.Run(w.name, func(b *testing.B) {
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
