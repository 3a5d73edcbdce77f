package apsp

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// walkWeight validates that walk is a genuine walk in g (consecutive
// vertices joined by an edge) and returns its weight using the cheapest
// edge between each consecutive pair (a shortest walk always uses the
// cheapest parallel edge).
func walkWeight(t *testing.T, g *graph.Graph, walk []int32) graph.Weight {
	t.Helper()
	var total graph.Weight
	for i := 0; i+1 < len(walk); i++ {
		u, v := walk[i], walk[i+1]
		best := Inf
		g.Neighbors(u, func(nb, eid int32) bool {
			if nb == v && g.Edge(eid).W < best {
				best = g.Edge(eid).W
			}
			return true
		})
		if best >= Inf {
			t.Fatalf("walk step %d: %d and %d not adjacent", i, u, v)
		}
		total += best
	}
	return total
}

// earPath is a's in-block x→y walk, or nil when y is unreachable.
func earPath(a *EarAPSP, x, y int32) []int32 {
	w, err := a.appendPath([]int32{x}, x, y)
	if err != nil {
		return nil
	}
	return w
}

func checkPaths(t *testing.T, g *graph.Graph, name string,
	query func(u, v int32) graph.Weight, path func(u, v int32) []int32) {
	t.Helper()
	n := int32(g.NumVertices())
	for u := int32(0); u < n; u++ {
		for v := int32(0); v < n; v++ {
			d := query(u, v)
			w := path(u, v)
			if d >= Inf {
				if w != nil {
					t.Fatalf("%s: unreachable pair (%d,%d) returned a path", name, u, v)
				}
				continue
			}
			if len(w) == 0 || w[0] != u || w[len(w)-1] != v {
				t.Fatalf("%s: path (%d,%d) endpoints wrong: %v", name, u, v, w)
			}
			if got := walkWeight(t, g, w); got != d {
				t.Fatalf("%s: path (%d,%d) weight %v, distance %v (walk %v)", name, u, v, got, d, w)
			}
		}
	}
}

func TestEarAPSPPath(t *testing.T) {
	for name, g := range testGraphs(t) {
		a := NewEarAPSP(g)
		checkPaths(t, g, "ear-path/"+name, a.Query, func(u, v int32) []int32 { return earPath(a, u, v) })
	}
}

func TestOraclePath(t *testing.T) {
	for name, g := range testGraphs(t) {
		o := NewOracle(g)
		checkPaths(t, g, "oracle-path/"+name, o.Query, o.Path)
	}
}

func TestPathRandomized(t *testing.T) {
	cfg := gen.Config{MaxWeight: 11}
	for seed := uint64(0); seed < 15; seed++ {
		rng := gen.NewRNG(seed + 100)
		g := gen.GNM(10+rng.Intn(30), 15+rng.Intn(60), cfg, rng)
		if rng.Float64() < 0.8 {
			g = gen.Subdivide(g, 0.6, 3, cfg, rng)
		}
		if rng.Float64() < 0.5 {
			g = gen.AttachPendants(g, rng.Intn(8), 2, cfg, rng)
		}
		o := NewOracle(g)
		a := NewEarAPSP(g)
		n := int32(g.NumVertices())
		for trial := 0; trial < 60; trial++ {
			u, v := rng.Int32n(n), rng.Int32n(n)
			d := o.Query(u, v)
			if d >= Inf {
				continue
			}
			if w := walkWeight(t, g, o.Path(u, v)); w != d {
				t.Fatalf("seed %d: oracle path weight %v != %v", seed, w, d)
			}
			if w := walkWeight(t, g, earPath(a, u, v)); w != d {
				t.Fatalf("seed %d: ear path weight %v != %v", seed, w, d)
			}
		}
	}
}

func TestPathOnLoopChain(t *testing.T) {
	// ring: reduced to a single anchor with the loop dropped in APSP mode;
	// paths between interior vertices must pick the short side.
	cfg := gen.Config{MaxWeight: 1}
	rng := gen.NewRNG(1)
	g := gen.Ring(10, cfg, rng)
	a := NewEarAPSP(g)
	checkPaths(t, g, "ring", a.Query, func(u, v int32) []int32 { return earPath(a, u, v) })
	// wraparound specifically: neighbours across the anchor
	w := earPath(a, 1, 9)
	if len(w) != 3 { // 1-0-9
		t.Fatalf("wraparound path %v", w)
	}
}

func TestPathTrivialCases(t *testing.T) {
	cfg := gen.Config{MaxWeight: 5}
	rng := gen.NewRNG(2)
	g := gen.GNM(10, 20, cfg, rng)
	a := NewEarAPSP(g)
	if p := earPath(a, 3, 3); len(p) != 1 || p[0] != 3 {
		t.Fatalf("self path %v", p)
	}
	o := NewOracle(g)
	if p := o.Path(4, 4); len(p) != 1 || p[0] != 4 {
		t.Fatalf("self path %v", p)
	}
}
