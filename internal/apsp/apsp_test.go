package apsp

import (
	"math"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/sssp"
)

// checkAgainstReference verifies a query function against per-source
// Bellman–Ford on every pair.
func checkAgainstReference(t *testing.T, g *graph.Graph, name string, query func(u, v int32) graph.Weight) {
	t.Helper()
	n := g.NumVertices()
	for u := int32(0); u < int32(n); u++ {
		ref := sssp.BellmanFord(g, u)
		for v := int32(0); v < int32(n); v++ {
			got := query(u, v)
			if got != ref[v] {
				t.Fatalf("%s: d(%d,%d) = %v, want %v", name, u, v, got, ref[v])
			}
		}
	}
}

func testGraphs(t *testing.T) map[string]*graph.Graph {
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
	// graph with heavy degree-2 chains
	gs["subdivided"] = gen.Subdivide(gen.GNM(15, 25, cfg, rng), 0.7, 3, cfg, rng)
	// non-biconnected: pendants + chained blocks
	gs["pendants"] = gen.AttachPendants(gen.GNM(20, 30, cfg, rng), 10, 3, cfg, rng)
	blocks := []*graph.Graph{
		gen.Ring(8, cfg, rng),
		gen.GNM(10, 16, cfg, rng),
		gen.Grid(3, 4, cfg, rng),
		gen.Ring(5, cfg, rng),
	}
	gs["chained-blocks"] = gen.ChainBlocks(blocks, cfg, rng)
	gs["chained-subdiv"] = gen.Subdivide(gs["chained-blocks"], 0.5, 2, cfg, rng)
	// disconnected
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

func TestEarAPSPMatchesReference(t *testing.T) {
	for name, g := range testGraphs(t) {
		a := NewEarAPSP(g)
		checkAgainstReference(t, g, "ear/"+name, a.Query)
	}
}

func TestEarAPSPParallelMatchesSequential(t *testing.T) {
	cfg := gen.Config{MaxWeight: 7}
	rng := gen.NewRNG(7)
	g := gen.Subdivide(gen.GNM(25, 40, cfg, rng), 0.5, 3, cfg, rng)
	seq := NewEarAPSP(g)
	par := NewEarAPSPParallel(g, 4)
	n := g.NumVertices()
	for u := int32(0); u < int32(n); u++ {
		for v := int32(0); v < int32(n); v++ {
			if seq.Query(u, v) != par.Query(u, v) {
				t.Fatalf("parallel mismatch at (%d,%d)", u, v)
			}
		}
	}
}

func TestOracleMatchesReference(t *testing.T) {
	for name, g := range testGraphs(t) {
		o := NewOracle(g)
		checkAgainstReference(t, g, "oracle/"+name, o.Query)
	}
}

func TestBanerjeeMatchesReference(t *testing.T) {
	for name, g := range testGraphs(t) {
		o := NewBanerjee(g, 2)
		checkAgainstReference(t, g, "banerjee/"+name, o.Query)
	}
}

func TestFloydWarshallMatchesNaive(t *testing.T) {
	cfg := gen.Config{MaxWeight: 9}
	rng := gen.NewRNG(11)
	g := gen.GNM(40, 80, cfg, rng)
	fw := FloydWarshall(g)
	nv, _ := Naive(g, 2)
	for i := range fw {
		if fw[i] != nv[i] {
			t.Fatalf("FW/naive mismatch at %d: %v vs %v", i, fw[i], nv[i])
		}
	}
}

func TestMaterializeMatchesQuery(t *testing.T) {
	cfg := gen.Config{MaxWeight: 4}
	rng := gen.NewRNG(13)
	g := gen.Subdivide(gen.Ring(10, cfg, rng), 1.0, 4, cfg, rng)
	a := NewEarAPSP(g)
	n := g.NumVertices()
	tbl := make([]graph.Weight, n*n)
	for x := 0; x < n; x++ {
		a.Row(int32(x), tbl[x*n:(x+1)*n])
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if tbl[u*n+v] != a.Query(int32(u), int32(v)) {
				t.Fatalf("materialize mismatch at (%d,%d)", u, v)
			}
		}
	}
	// symmetric and zero-diagonal
	for u := 0; u < n; u++ {
		if tbl[u*n+u] != 0 {
			t.Fatalf("nonzero diagonal at %d", u)
		}
		for v := 0; v < n; v++ {
			if tbl[u*n+v] != tbl[v*n+u] {
				t.Fatalf("asymmetric at (%d,%d)", u, v)
			}
		}
	}
}

func TestOracleMemoryModel(t *testing.T) {
	cfg := gen.Config{MaxWeight: 4}
	rng := gen.NewRNG(17)
	blocks := []*graph.Graph{gen.Ring(20, cfg, rng), gen.Ring(30, cfg, rng)}
	g := gen.ChainBlocks(blocks, cfg, rng)
	o := NewOracle(g)
	m := o.Memory()
	if m.OursEntries >= m.MaxEntries {
		t.Fatalf("expected block decomposition to save memory: ours=%d max=%d", m.OursEntries, m.MaxEntries)
	}
	if rm := o.ReducedMemory(); rm > m.OursEntries {
		t.Fatalf("reduced accounting %d should not exceed paper accounting %d", rm, m.OursEntries)
	}
	ours, max := m.Bytes()
	if ours != m.OursEntries*4 || max != m.MaxEntries*4 {
		t.Fatalf("byte accounting wrong")
	}
}

func TestOracleNodesRemoved(t *testing.T) {
	cfg := gen.Config{MaxWeight: 3}
	rng := gen.NewRNG(19)
	base := gen.GNM(15, 25, cfg, rng)
	sub := gen.Subdivide(base, 1.0, 3, cfg, rng)
	o := NewOracle(sub)
	removed := o.NodesRemoved()
	added := sub.NumVertices() - base.NumVertices()
	if removed < added/2 {
		t.Fatalf("expected most of the %d injected degree-2 vertices removed, got %d", added, removed)
	}
}

// Property test: random graphs of varied shape, ear APSP vs naive Dijkstra.
func TestEarAPSPRandomizedProperty(t *testing.T) {
	for seed := uint64(0); seed < 25; seed++ {
		rng := gen.NewRNG(seed)
		cfg := gen.Config{MaxWeight: 1 + rng.Intn(12)}
		n := 8 + rng.Intn(25)
		m := n - 1 + rng.Intn(2*n)
		g := gen.GNM(n, m, cfg, rng)
		if rng.Float64() < 0.7 {
			g = gen.Subdivide(g, rng.Float64(), 1+rng.Intn(4), cfg, rng)
		}
		if rng.Float64() < 0.4 {
			g = gen.AttachPendants(g, rng.Intn(8), 2, cfg, rng)
		}
		a := NewEarAPSP(g)
		o := NewOracle(g)
		nv := g.NumVertices()
		for trial := 0; trial < 50; trial++ {
			u := rng.Int32n(int32(nv))
			ref := sssp.BellmanFord(g, u)
			v := rng.Int32n(int32(nv))
			if got := a.Query(u, v); got != ref[v] {
				t.Fatalf("seed %d: ear d(%d,%d)=%v want %v", seed, u, v, got, ref[v])
			}
			if got := o.Query(u, v); got != ref[v] {
				t.Fatalf("seed %d: oracle d(%d,%d)=%v want %v", seed, u, v, got, ref[v])
			}
		}
	}
}

func TestDegenerateGraphs(t *testing.T) {
	// empty graph
	empty := graph.FromEdges(0, nil)
	oe := NewOracle(empty)
	_ = oe
	ae := NewEarAPSP(empty)
	_ = ae
	// single isolated vertex
	one := graph.FromEdges(1, nil)
	o1 := NewOracle(one)
	if d := o1.Query(0, 0); d != 0 {
		t.Fatalf("self distance %v", d)
	}
	a1 := NewEarAPSP(one)
	if d := a1.Query(0, 0); d != 0 {
		t.Fatalf("self distance %v", d)
	}
	// two isolated vertices
	two := graph.FromEdges(2, nil)
	o2 := NewOracle(two)
	if d := o2.Query(0, 1); d < Inf {
		t.Fatalf("isolated pair distance %v", d)
	}
	if p := o2.Path(0, 1); p != nil {
		t.Fatalf("isolated pair path %v", p)
	}
	// single self-loop
	b := graph.NewBuilder(1)
	b.AddEdge(0, 0, 5)
	ol := NewOracle(b.Build())
	if d := ol.Query(0, 0); d != 0 {
		t.Fatalf("loop self distance %v", d)
	}
	// single edge
	b2 := graph.NewBuilder(2)
	b2.AddEdge(0, 1, 7)
	os := NewOracle(b2.Build())
	if d := os.Query(0, 1); d != 7 {
		t.Fatalf("edge distance %v", d)
	}
	if p := os.Path(0, 1); len(p) != 2 {
		t.Fatalf("edge path %v", p)
	}
	// Banerjee on a degenerate input
	if d := NewBanerjee(b2.Build(), 1).Query(0, 1); d != 7 {
		t.Fatalf("banerjee edge %v", d)
	}
}

// TestTablesSymmetric: S^r and A store one value per pair, so the tables
// are symmetric by construction, bit for bit, even on float weights,
// where a search's sums round differently from each end. On every
// testGraphs graph with its weights divided by 3, every in-block distance
// between two kept vertices and every A entry, read through Query between
// two cut vertices, reads the same both ways round.
func TestTablesSymmetric(t *testing.T) {
	pairs := 0
	same := func(name, what string, u, v int32, d func(u, v int32) graph.Weight) {
		t.Helper()
		pairs++
		if duv, dvu := d(u, v), d(v, u); math.Float64bits(duv) != math.Float64bits(dvu) {
			t.Errorf("%s: %s d(%d,%d) = %v, d(%d,%d) = %v", name, what, u, v, duv, v, u, dvu)
		}
	}
	for name, g := range testGraphs(t) {
		edges := slices.Clone(g.Edges())
		for i := range edges {
			edges[i].W /= 3
		}
		o := NewOracle(graph.FromEdges(g.NumVertices(), edges))
		for bi, blk := range o.Blocks {
			verts, b := o.BCT.BlockVerts[bi], int32(bi)
			in := func(u, v int32) graph.Weight { return o.QueryParent(b, u, v) }
			for i, x := range blk.Red.KeptToOrig {
				for _, y := range blk.Red.KeptToOrig[i+1:] {
					same(name, "S^r", verts[x], verts[y], in)
				}
			}
		}
		cuts := o.BCT.CutVertices
		for i, u := range cuts {
			for _, v := range cuts[i+1:] {
				same(name, "A", u, v, o.Query)
			}
		}
	}
	if pairs < 900 {
		t.Fatalf("only %d pairs compared", pairs)
	}
}
