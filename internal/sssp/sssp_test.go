package sssp

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

func randomGraphs() []*graph.Graph {
	cfg := gen.Config{MaxWeight: 12}
	var gs []*graph.Graph
	for seed := uint64(0); seed < 10; seed++ {
		rng := gen.NewRNG(seed)
		g := gen.GNM(10+rng.Intn(60), 15+rng.Intn(150), cfg, rng)
		if rng.Float64() < 0.5 {
			g = gen.Subdivide(g, 0.5, 2, cfg, rng)
		}
		gs = append(gs, g)
	}
	// disconnected graph
	b := graph.NewBuilder(7)
	b.AddEdge(0, 1, 2)
	b.AddEdge(1, 2, 2)
	b.AddEdge(3, 4, 1)
	gs = append(gs, b.Build())
	// multigraph with loop and parallel edges
	b2 := graph.NewBuilder(3)
	b2.AddEdge(0, 1, 5)
	b2.AddEdge(0, 1, 2)
	b2.AddEdge(1, 2, 1)
	b2.AddEdge(2, 2, 9)
	gs = append(gs, b2.Build())
	return gs
}

func TestDijkstraMatchesBellmanFord(t *testing.T) {
	for gi, g := range randomGraphs() {
		for src := int32(0); src < int32(g.NumVertices()); src += 3 {
			want := BellmanFord(g, src)
			res := Dijkstra(g, src, nil)
			for v := range want {
				if res.Dist[v] != want[v] {
					t.Fatalf("graph %d src %d: dist[%d] = %v, want %v", gi, src, v, res.Dist[v], want[v])
				}
			}
		}
	}
}

func TestDistancesOnlyMatchesDijkstra(t *testing.T) {
	for gi, g := range randomGraphs() {
		n := g.NumVertices()
		dist := make([]graph.Weight, n)
		sc := NewScratch(n)
		for src := int32(0); src < int32(n); src += 2 {
			full := Dijkstra(g, src, sc)
			DistancesOnly(g, src, dist, sc)
			for v := 0; v < n; v++ {
				if dist[v] != full.Dist[v] {
					t.Fatalf("graph %d: DistancesOnly differs at %d", gi, v)
				}
			}
		}
	}
}

func TestFrontierMatchesDijkstra(t *testing.T) {
	for gi, g := range randomGraphs() {
		for src := int32(0); src < int32(g.NumVertices()); src += 2 {
			want := Dijkstra(g, src, nil)
			got, sweeps := FrontierSweeps(g, src)
			if sweeps <= 0 {
				t.Fatalf("graph %d: zero sweeps", gi)
			}
			for v := range want.Dist {
				if got.Dist[v] != want.Dist[v] {
					t.Fatalf("graph %d src %d: frontier dist[%d] wrong", gi, src, v)
				}
			}
		}
	}
}

// TestUnitWeights keeps the half of the deleted BFS test that checked code
// still here: bc picks its BFS forward pass on this predicate.
func TestUnitWeights(t *testing.T) {
	rng := gen.NewRNG(70)
	if g := gen.GNM(30, 60, gen.Config{MaxWeight: 1}, rng); !UnitWeights(g) {
		t.Fatal("generator should emit unit weights at MaxWeight 1")
	}
	b := graph.NewBuilder(2)
	b.AddEdge(0, 1, 2)
	if UnitWeights(b.Build()) {
		t.Fatal("weight-2 graph reported as unit")
	}
}

func TestParentTreeIsValid(t *testing.T) {
	for gi, g := range randomGraphs() {
		src := int32(0)
		res := Dijkstra(g, src, nil)
		for v := int32(0); v < int32(g.NumVertices()); v++ {
			p := res.Parent[v]
			if v == src {
				if p != -1 {
					t.Fatalf("graph %d: source has parent", gi)
				}
				continue
			}
			if res.Dist[v] == Inf {
				if p != -1 {
					t.Fatalf("graph %d: unreachable vertex has parent", gi)
				}
				continue
			}
			if p < 0 {
				t.Fatalf("graph %d: reachable vertex %d has no parent", gi, v)
			}
			e := g.Edge(res.ParentEdge[v])
			if !(e.U == p && e.V == v || e.V == p && e.U == v) {
				t.Fatalf("graph %d: parent edge mismatch at %d", gi, v)
			}
			if res.Dist[p]+e.W != res.Dist[v] {
				t.Fatalf("graph %d: tree edge not tight at %d", gi, v)
			}
		}
	}
}

func TestBuildTreeOrderAndDepth(t *testing.T) {
	cfg := gen.Config{MaxWeight: 9}
	rng := gen.NewRNG(3)
	g := gen.GNM(50, 120, cfg, rng)
	res := Dijkstra(g, 7, nil)
	tr := BuildTree(res)
	if tr.Root != 7 || tr.Order[0] != 7 || tr.Depth[7] != 0 {
		t.Fatal("root wrong")
	}
	pos := make([]int, g.NumVertices())
	for i, v := range tr.Order {
		pos[v] = i
	}
	for _, v := range tr.Order[1:] {
		p := tr.Parent[v]
		if pos[p] >= pos[v] {
			t.Fatal("parent after child in order")
		}
		if tr.Depth[v] != tr.Depth[p]+1 {
			t.Fatal("depth inconsistent")
		}
	}
	if !tr.InTree(7) || !tr.InTree(tr.Order[1]) {
		t.Fatal("InTree wrong")
	}
}

// Property: for any seeded random graph, every Dijkstra distance satisfies
// the triangle inequality over every edge (the certificate of correctness
// for shortest path labelings).
func TestDijkstraTriangleInequalityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := gen.NewRNG(seed)
		cfg := gen.Config{MaxWeight: 1 + rng.Intn(20)}
		g := gen.GNM(5+rng.Intn(40), 5+rng.Intn(100), cfg, rng)
		src := rng.Int32n(int32(g.NumVertices()))
		res := Dijkstra(g, src, nil)
		for _, e := range g.Edges() {
			du, dv := res.Dist[e.U], res.Dist[e.V]
			if du < Inf && du+e.W < dv {
				return false
			}
			if dv < Inf && dv+e.W < du {
				return false
			}
		}
		return res.Dist[src] == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestScratchReuseAcrossSizes(t *testing.T) {
	cfg := gen.Config{MaxWeight: 4}
	rng := gen.NewRNG(8)
	small := gen.Ring(5, cfg, rng)
	big := gen.GNM(60, 100, cfg, rng)
	sc := NewScratch(60)
	d1 := Dijkstra(big, 0, sc)
	d2 := Dijkstra(small, 0, sc)
	want := BellmanFord(small, 0)
	for v := range want {
		if d2.Dist[v] != want[v] {
			t.Fatal("scratch reuse broke results")
		}
	}
	_ = d1
}

// The build's inner loop runs once per reduced source with a Scratch its
// worker keeps: with the heap and the distance row supplied, a run
// allocates nothing.
func TestDistancesOnlyWarmScratchAllocsNothing(t *testing.T) {
	g := randomGraphs()[0]
	n := g.NumVertices()
	sc := NewScratch(n)
	dist := make([]graph.Weight, n)
	src := int32(0)
	if allocs := testing.AllocsPerRun(50, func() {
		DistancesOnly(g, src, dist, sc)
		src = (src + 1) % int32(n)
	}); allocs != 0 {
		t.Fatalf("DistancesOnly with a warm Scratch allocates %v times per run", allocs)
	}
}
