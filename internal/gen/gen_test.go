package gen

import (
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := true
	a = NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds identical")
	}
}

func TestRNGRanges(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		if w := r.Weight(5); w < 1 || w > 5 || w != float64(int(w)) {
			t.Fatalf("Weight out of range: %v", w)
		}
	}
	if w := r.Weight(0); w != 1 {
		t.Fatal("Weight(0) should be 1")
	}
}

func TestPerm(t *testing.T) {
	r := NewRNG(3)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, x := range p {
		if seen[x] {
			t.Fatal("duplicate in permutation")
		}
		seen[x] = true
	}
}

func connected(g *graph.Graph) bool {
	return graph.CountComponents(g) <= 1
}

func simple(g *graph.Graph) bool {
	seen := make(map[[2]int32]bool)
	for _, e := range g.Edges() {
		if e.U == e.V {
			return false
		}
		a, b := e.U, e.V
		if a > b {
			a, b = b, a
		}
		if seen[[2]int32{a, b}] {
			return false
		}
		seen[[2]int32{a, b}] = true
	}
	return true
}

func TestGNM(t *testing.T) {
	cfg := Config{MaxWeight: 5}
	for seed := uint64(0); seed < 10; seed++ {
		rng := NewRNG(seed)
		n := 5 + rng.Intn(100)
		m := n + rng.Intn(3*n)
		g := GNM(n, m, cfg, rng)
		if g.NumVertices() != n || g.NumEdges() != m {
			t.Fatalf("size wrong: %d/%d vs %d/%d", g.NumVertices(), g.NumEdges(), n, m)
		}
		if !connected(g) {
			t.Fatalf("seed %d: GNM disconnected", seed)
		}
		if !simple(g) {
			t.Fatalf("seed %d: GNM not simple", seed)
		}
	}
	// m below the tree bound is raised to n-1
	g := GNM(10, 0, cfg, NewRNG(1))
	if g.NumEdges() != 9 {
		t.Fatalf("tree fallback wrong: %d edges", g.NumEdges())
	}
}

func TestPreferentialAttachment(t *testing.T) {
	cfg := Config{MaxWeight: 3}
	g := PreferentialAttachment(300, 2, cfg, NewRNG(5))
	if g.NumVertices() != 300 {
		t.Fatalf("n wrong")
	}
	if !connected(g) {
		t.Fatal("PA disconnected")
	}
	if !simple(g) {
		t.Fatal("PA not simple")
	}
	// heavy tail: max degree well above the mean
	maxDeg := 0
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		maxDeg = max(maxDeg, g.Degree(v))
	}
	mean := 2 * float64(g.NumEdges()) / 300
	if float64(maxDeg) < 3*mean {
		t.Fatalf("degree distribution too flat: max %d, mean %.1f", maxDeg, mean)
	}
}

func TestRandomGeometric(t *testing.T) {
	cfg := Config{MaxWeight: 4}
	g := RandomGeometric(400, 6, cfg, NewRNG(9))
	if g.NumVertices() != 400 {
		t.Fatal("n wrong")
	}
	if !connected(g) {
		t.Fatal("geometric graph should be connected after patching")
	}
	avg := 2 * float64(g.NumEdges()) / 400
	if avg < 2 || avg > 14 {
		t.Fatalf("average degree %v far from requested 6", avg)
	}
}

func TestGridAndTriangulated(t *testing.T) {
	cfg := Config{MaxWeight: 2}
	g := Grid(4, 5, cfg, NewRNG(1))
	if g.NumVertices() != 20 || g.NumEdges() != 4*4+5*3 {
		t.Fatalf("grid size wrong: %d %d", g.NumVertices(), g.NumEdges())
	}
	tg := TriangulatedGrid(4, 5, cfg, NewRNG(1))
	if tg.NumEdges() != g.NumEdges()+3*4 {
		t.Fatalf("triangulated edges %d", tg.NumEdges())
	}
	if !connected(tg) {
		t.Fatal("grid disconnected")
	}
}

func TestPlanarEars(t *testing.T) {
	cfg := Config{MaxWeight: 6}
	for seed := uint64(0); seed < 6; seed++ {
		g := PlanarEars(100, 2, cfg, NewRNG(seed))
		if !connected(g) {
			t.Fatalf("seed %d: disconnected", seed)
		}
		// biconnected by construction: no articulation points means every
		// vertex has degree >= 2
		for v := int32(0); v < int32(g.NumVertices()); v++ {
			if g.Degree(v) < 2 {
				t.Fatalf("seed %d: vertex %d has degree %d", seed, v, g.Degree(v))
			}
		}
		// Euler bound for simple planar graphs: m <= 3n-6 (ear insertion
		// can create parallel chains but interior vertices keep it sparse)
		if g.NumEdges() > 3*g.NumVertices() {
			t.Fatalf("seed %d: too dense to be planar-ish", seed)
		}
	}
}

func TestRingAndComplete(t *testing.T) {
	cfg := Config{MaxWeight: 1}
	r := Ring(7, cfg, NewRNG(2))
	if r.NumEdges() != 7 {
		t.Fatal("ring edges wrong")
	}
	for v := int32(0); v < 7; v++ {
		if r.Degree(v) != 2 {
			t.Fatal("ring degree wrong")
		}
	}
	k := Complete(6, cfg, NewRNG(2))
	if k.NumEdges() != 15 {
		t.Fatal("K6 edges wrong")
	}
}

func TestSubdivide(t *testing.T) {
	cfg := Config{MaxWeight: 5}
	rng := NewRNG(11)
	base := GNM(20, 40, cfg, rng)
	sub := Subdivide(base, 1.0, 3, cfg, rng)
	if sub.NumVertices() <= base.NumVertices() {
		t.Fatal("subdivision added no vertices")
	}
	// every added vertex has degree exactly 2
	for v := int32(base.NumVertices()); v < int32(sub.NumVertices()); v++ {
		if sub.Degree(v) != 2 {
			t.Fatalf("interior vertex %d has degree %d", v, sub.Degree(v))
		}
	}
	// edge count grows by exactly the added vertex count
	added := sub.NumVertices() - base.NumVertices()
	if sub.NumEdges() != base.NumEdges()+added {
		t.Fatalf("edges %d, want %d", sub.NumEdges(), base.NumEdges()+added)
	}
	if !connected(sub) {
		t.Fatal("subdivision broke connectivity")
	}
	// fraction 0 is the identity
	if same := Subdivide(base, 0, 3, cfg, rng); same != base {
		t.Fatal("zero fraction should return the input unchanged")
	}
}

func TestAttachPendants(t *testing.T) {
	cfg := Config{MaxWeight: 2}
	rng := NewRNG(13)
	base := Ring(10, cfg, rng)
	g := AttachPendants(base, 15, 3, cfg, rng)
	if g.NumVertices() != 25 {
		t.Fatalf("vertices %d, want 25", g.NumVertices())
	}
	if g.NumEdges() != base.NumEdges()+15 {
		t.Fatal("each pendant should add one edge")
	}
	if !connected(g) {
		t.Fatal("pendants broke connectivity")
	}
}

func TestChainBlocks(t *testing.T) {
	cfg := Config{MaxWeight: 3}
	rng := NewRNG(17)
	blocks := []*graph.Graph{Ring(5, cfg, rng), Ring(6, cfg, rng), Ring(7, cfg, rng)}
	g := ChainBlocks(blocks, cfg, rng)
	// each join merges one vertex
	if g.NumVertices() != 5+6+7-2 {
		t.Fatalf("vertices %d", g.NumVertices())
	}
	if g.NumEdges() != 5+6+7 {
		t.Fatalf("edges %d", g.NumEdges())
	}
	if !connected(g) {
		t.Fatal("chained blocks disconnected")
	}
}

func TestRelabelPreservesStructure(t *testing.T) {
	cfg := Config{MaxWeight: 9}
	rng := NewRNG(19)
	g := GNM(30, 60, cfg, rng)
	h, perm := Relabel(g, rng)
	if h.NumVertices() != g.NumVertices() || h.NumEdges() != g.NumEdges() {
		t.Fatal("relabel changed size")
	}
	for i, e := range g.Edges() {
		he := h.Edge(int32(i))
		if he.U != perm[e.U] || he.V != perm[e.V] || he.W != e.W {
			t.Fatal("relabel broke edge mapping")
		}
	}
	// degree multiset preserved
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		if g.Degree(v) != h.Degree(perm[v]) {
			t.Fatal("degree not preserved under relabel")
		}
	}
}

// Property: generators are pure functions of their seed.
func TestGeneratorDeterminismProperty(t *testing.T) {
	f := func(seed uint64) bool {
		cfg := Config{MaxWeight: 7}
		a := GNM(25, 50, cfg, NewRNG(seed))
		b := GNM(25, 50, cfg, NewRNG(seed))
		if a.NumEdges() != b.NumEdges() {
			return false
		}
		for i := range a.Edges() {
			if a.Edge(int32(i)) != b.Edge(int32(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestWattsStrogatz(t *testing.T) {
	cfg := Config{MaxWeight: 4}
	for _, p := range []float64{0, 0.1, 0.5, 1} {
		g := WattsStrogatz(120, 2, p, cfg, NewRNG(uint64(p*100)+3))
		if g.NumVertices() != 120 {
			t.Fatal("n wrong")
		}
		if !connected(g) {
			t.Fatalf("p=%v: disconnected", p)
		}
		if !simple(g) {
			t.Fatalf("p=%v: not simple", p)
		}
		// ~2k edges per vertex in expectation (rewiring preserves count
		// modulo collisions)
		if g.NumEdges() < 120 || g.NumEdges() > 240 {
			t.Fatalf("p=%v: %d edges", p, g.NumEdges())
		}
	}
	// p=0 is the pure lattice: exactly n·k edges, all degrees 2k
	g := WattsStrogatz(50, 2, 0, cfg, NewRNG(1))
	if g.NumEdges() != 100 {
		t.Fatalf("lattice edges %d", g.NumEdges())
	}
	for v := int32(0); v < 50; v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("lattice degree %d at %d", g.Degree(v), v)
		}
	}
}

func TestRandomTree(t *testing.T) {
	cfg := Config{MaxWeight: 3}
	g := RandomTree(80, cfg, NewRNG(4))
	if g.NumEdges() != 79 {
		t.Fatalf("tree edges %d", g.NumEdges())
	}
	if !connected(g) {
		t.Fatal("tree disconnected")
	}
}
