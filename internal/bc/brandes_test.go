package bc

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/sssp"
)

// bruteForce computes BC from first principles: per-source shortest path
// counts σ_s(v) via settled-order DP, then the pair formula
// σ_st(v) = σ_sv·σ_vt when d(s,v)+d(v,t) = d(s,t).
func bruteForce(g *graph.Graph) []float64 {
	n := g.NumVertices()
	dist := make([][]graph.Weight, n)
	sigma := make([][]float64, n)
	for s := 0; s < n; s++ {
		res := sssp.Dijkstra(g, int32(s), nil)
		dist[s] = res.Dist
		// settled order by distance
		order := make([]int32, 0, n)
		for v := int32(0); v < int32(n); v++ {
			if res.Dist[v] < sssp.Inf {
				order = append(order, v)
			}
		}
		// insertion sort by distance
		for i := 1; i < len(order); i++ {
			for j := i; j > 0 && dist[s][order[j]] < dist[s][order[j-1]]; j-- {
				order[j], order[j-1] = order[j-1], order[j]
			}
		}
		sig := make([]float64, n)
		sig[s] = 1
		for _, v := range order {
			if v == int32(s) {
				continue
			}
			g.Neighbors(v, func(u, eid int32) bool {
				if u != v && dist[s][u]+g.Edge(eid).W == dist[s][v] {
					sig[v] += sig[u]
				}
				return true
			})
		}
		sigma[s] = sig
	}
	bc := make([]float64, n)
	for s := 0; s < n; s++ {
		for t := 0; t < n; t++ {
			if s == t || dist[s][t] >= sssp.Inf {
				continue
			}
			for v := 0; v < n; v++ {
				if v == s || v == t {
					continue
				}
				if dist[s][v]+dist[v][t] == dist[s][t] {
					bc[v] += sigma[s][v] * sigma[v][t] / sigma[s][t]
				}
			}
		}
	}
	return bc
}

func approxEqual(a, b float64) bool {
	diff := math.Abs(a - b)
	return diff <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

func TestBrandesMatchesBruteForce(t *testing.T) {
	cfg := gen.Config{MaxWeight: 6}
	for seed := uint64(0); seed < 12; seed++ {
		rng := gen.NewRNG(seed)
		g := gen.GNM(8+rng.Intn(20), 10+rng.Intn(40), cfg, rng)
		if rng.Float64() < 0.5 {
			g = gen.AttachPendants(g, rng.Intn(6), 2, cfg, rng)
		}
		want := bruteForce(g)
		got := Parallel(g, 1)
		for v := range want {
			if !approxEqual(got.Scores[v], want[v]) {
				t.Fatalf("seed %d: BC[%d] = %v, want %v", seed, v, got.Scores[v], want[v])
			}
		}
	}
}

func TestBrandesKnownShapes(t *testing.T) {
	cfg := gen.Config{MaxWeight: 1}
	rng := gen.NewRNG(1)
	// path graph P5: BC(i) = 2·i·(n-1-i)
	b := graph.NewBuilder(5)
	for i := int32(0); i < 4; i++ {
		b.AddEdge(i, i+1, 1)
	}
	res := Parallel(b.Build(), 1)
	for i := 0; i < 5; i++ {
		want := 2 * float64(i) * float64(4-i)
		if !approxEqual(res.Scores[i], want) {
			t.Fatalf("path BC[%d] = %v, want %v", i, res.Scores[i], want)
		}
	}
	// star: center carries all (n-1)(n-2) ordered pairs
	star := graph.NewBuilder(6)
	for i := int32(1); i < 6; i++ {
		star.AddEdge(0, i, 1)
	}
	res = Parallel(star.Build(), 1)
	if !approxEqual(res.Scores[0], 5*4) {
		t.Fatalf("star center BC %v, want 20", res.Scores[0])
	}
	for i := 1; i < 6; i++ {
		if res.Scores[i] != 0 {
			t.Fatalf("star leaf BC %v", res.Scores[i])
		}
	}
	// ring: symmetric scores
	res = Parallel(gen.Ring(8, cfg, rng), 1)
	for i := 1; i < 8; i++ {
		if !approxEqual(res.Scores[i], res.Scores[0]) {
			t.Fatalf("ring BC not symmetric: %v", res.Scores)
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	cfg := gen.Config{MaxWeight: 7}
	rng := gen.NewRNG(21)
	g := gen.Subdivide(gen.GNM(40, 80, cfg, rng), 0.4, 2, cfg, rng)
	seq := Parallel(g, 1)
	par := Parallel(g, 4)
	for v := range seq.Scores {
		if !approxEqual(seq.Scores[v], par.Scores[v]) {
			t.Fatalf("parallel BC differs at %d", v)
		}
	}
}

func TestTopK(t *testing.T) {
	b := graph.NewBuilder(7)
	for i := int32(0); i < 6; i++ {
		b.AddEdge(i, i+1, 1)
	}
	res := Parallel(b.Build(), 1)
	top := res.TopK(2)
	if len(top) != 2 || top[0] != 3 {
		t.Fatalf("top of a path should be the middle: %v", top)
	}
	if got := res.TopK(100); len(got) != 7 {
		t.Fatalf("TopK overflow: %d", len(got))
	}
	if got := res.TopK(-1); len(got) != 0 {
		t.Fatalf("TopK(-1) = %v, want none", got)
	}
}

func TestParallelEdgesCountAsDistinctPaths(t *testing.T) {
	// s=0, v=1, t=2 with doubled edge 0-1: two shortest 0→2 paths both
	// passing 1 → BC(1) counts the pair fully (2 ordered pairs).
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1, 1)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	res := Parallel(b.Build(), 1)
	if !approxEqual(res.Scores[1], 2) {
		t.Fatalf("BC[1] = %v, want 2", res.Scores[1])
	}
	want := bruteForce(b.Build())
	for v := range want {
		if !approxEqual(res.Scores[v], want[v]) {
			t.Fatalf("multigraph BC mismatch at %d", v)
		}
	}
}

func TestBFSFastPathMatchesDijkstraPath(t *testing.T) {
	cfg := gen.Config{MaxWeight: 1} // unit weights trigger the BFS path
	rng := gen.NewRNG(33)
	g := gen.PreferentialAttachment(120, 2, cfg, rng)
	viaParallel := Parallel(g, 2) // BFS fast path
	// force the Dijkstra path by computing per-source with state.source
	n := g.NumVertices()
	st := newState(n)
	acc := make([]float64, n)
	for s := 0; s < n; s++ {
		st.source(g, int32(s), acc)
	}
	for v := range acc {
		if !approxEqual(acc[v], viaParallel.Scores[v]) {
			t.Fatalf("BFS fast path differs at %d: %v vs %v", v, viaParallel.Scores[v], acc[v])
		}
	}
	// and against brute force, including parallel unit edges
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 1)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 3, 1)
	mg := b.Build()
	want := bruteForce(mg)
	got := Parallel(mg, 1)
	for v := range want {
		if !approxEqual(got.Scores[v], want[v]) {
			t.Fatalf("multigraph BFS path differs at %d", v)
		}
	}
}
