package partition

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestPartitionBasics(t *testing.T) {
	cfg := gen.Config{MaxWeight: 5}
	rng := gen.NewRNG(3)
	g := gen.TriangulatedGrid(12, 12, cfg, rng)
	for _, k := range []int{1, 2, 4, 8} {
		part := Partition(g, k, 4)
		if len(part) != g.NumVertices() {
			t.Fatalf("k=%d: wrong label count", k)
		}
		counts := sizes(part, k)
		nonEmpty := 0
		for _, s := range counts {
			if s > 0 {
				nonEmpty++
			}
		}
		if nonEmpty != k {
			t.Fatalf("k=%d: %d non-empty parts", k, nonEmpty)
		}
		// balance: no part more than 2x the ideal on a mesh
		ideal := g.NumVertices() / k
		for p, s := range counts {
			if s > 2*ideal+2 {
				t.Fatalf("k=%d: part %d has %d vertices (ideal %d)", k, p, s, ideal)
			}
		}
	}
}

func TestPartitionSmallBoundaryOnMesh(t *testing.T) {
	cfg := gen.Config{MaxWeight: 3}
	rng := gen.NewRNG(7)
	g := gen.TriangulatedGrid(20, 20, cfg, rng)
	part := Partition(g, 4, 6)
	b := Boundary(g, part)
	// A 4-way cut of a 20x20 mesh should have a boundary far below n.
	if len(b) > g.NumVertices()/3 {
		t.Fatalf("boundary %d of %d vertices — partitioner useless", len(b), g.NumVertices())
	}
	cut := cutEdges(g, part)
	if cut <= 0 || cut >= g.NumEdges()/2 {
		t.Fatalf("cut %d of %d edges", cut, g.NumEdges())
	}
}

func TestPartitionDisconnected(t *testing.T) {
	b := graph.NewBuilder(10)
	for i := int32(0); i < 4; i++ {
		b.AddEdge(i, (i+1)%5, 1)
	}
	b.AddEdge(5, 6, 1)
	b.AddEdge(6, 7, 1) // vertices 8,9 isolated
	g := b.Build()
	part := Partition(g, 3, 2)
	for v, p := range part {
		if p < 0 || p >= 3 {
			t.Fatalf("vertex %d unassigned: %d", v, p)
		}
	}
}

func TestRefinementReducesCut(t *testing.T) {
	cfg := gen.Config{MaxWeight: 2}
	rng := gen.NewRNG(11)
	g := gen.TriangulatedGrid(15, 15, cfg, rng)
	noRefine := Partition(g, 4, 0)
	refined := Partition(g, 4, 6)
	if cutEdges(g, refined) > cutEdges(g, noRefine) {
		t.Fatalf("refinement increased the cut: %d -> %d",
			cutEdges(g, noRefine), cutEdges(g, refined))
	}
}

func TestBoundaryDefinition(t *testing.T) {
	cfg := gen.Config{MaxWeight: 2}
	rng := gen.NewRNG(13)
	g := gen.GNM(60, 150, cfg, rng)
	part := Partition(g, 3, 3)
	isB := make(map[int32]bool)
	for _, v := range Boundary(g, part) {
		isB[v] = true
	}
	for _, e := range g.Edges() {
		if part[e.U] != part[e.V] {
			if !isB[e.U] || !isB[e.V] {
				t.Fatal("cut edge endpoint missing from boundary")
			}
		}
	}
}

// TestPartitionManyComponents covers the disconnected-leftovers path with
// more components than parts and with isolated vertices: every vertex must
// end up with a valid label and the labels must cover vertices exactly
// once (labels in [0, k), sizes summing to n).
func TestPartitionManyComponents(t *testing.T) {
	// 5 disjoint triangles + 5 isolated vertices = 10 components.
	b := graph.NewBuilder(20)
	for c := int32(0); c < 5; c++ {
		v := 3 * c
		b.AddEdge(v, v+1, 1)
		b.AddEdge(v+1, v+2, 1)
		b.AddEdge(v+2, v, 1)
	}
	g := b.Build()
	for _, k := range []int{1, 2, 3, 7} {
		part := Partition(g, k, 3)
		if len(part) != g.NumVertices() {
			t.Fatalf("k=%d: %d labels for %d vertices", k, len(part), g.NumVertices())
		}
		for v, p := range part {
			if p < 0 || int(p) >= k {
				t.Fatalf("k=%d: vertex %d has invalid label %d", k, v, p)
			}
		}
		total := 0
		for _, s := range sizes(part, k) {
			total += s
		}
		if total != g.NumVertices() {
			t.Fatalf("k=%d: sizes sum to %d, want %d", k, total, g.NumVertices())
		}
	}
}

// TestPartitionKExceedsN: requesting more parts than vertices must clamp
// to n, label every vertex validly, and still terminate on disconnected
// and edgeless inputs.
func TestPartitionKExceedsN(t *testing.T) {
	cases := map[string]*graph.Graph{
		"path":     gen.Ring(5, gen.Config{MaxWeight: 3}, gen.NewRNG(17)),
		"edgeless": graph.FromEdges(4, nil),
	}
	// two components, 6 vertices
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(3, 4, 1)
	b.AddEdge(4, 5, 1)
	cases["two-paths"] = b.Build()

	for name, g := range cases {
		n := g.NumVertices()
		for _, k := range []int{n + 1, 2*n + 3, 100} {
			part := Partition(g, k, 2)
			if len(part) != n {
				t.Fatalf("%s k=%d: %d labels for %d vertices", name, k, len(part), n)
			}
			seen := make(map[int32]bool)
			for v, p := range part {
				if p < 0 || int(p) >= n {
					t.Fatalf("%s k=%d: vertex %d has label %d outside [0, n=%d)", name, k, v, p, n)
				}
				seen[p] = true
			}
			// k clamps to n, so every vertex is its own seed: all n parts
			// are non-empty.
			if len(seen) != n {
				t.Fatalf("%s k=%d: %d distinct labels, want %d", name, k, len(seen), n)
			}
		}
	}
}

// TestPartitionSingleVertexAndEmpty: the degenerate shapes a serving
// layer can feed the partitioner must not panic.
func TestPartitionSingleVertexAndEmpty(t *testing.T) {
	one := graph.FromEdges(1, nil)
	part := Partition(one, 4, 2)
	if len(part) != 1 || part[0] != 0 {
		t.Fatalf("single vertex: %v", part)
	}
	empty := graph.FromEdges(0, nil)
	if got := Partition(empty, 3, 1); len(got) != 0 {
		t.Fatalf("empty graph: %v", got)
	}
}

// TestPartitionWeighted: a heavily skewed weight vector still yields a
// weight-balanced partition, and nil weights reproduce Partition exactly.
func TestPartitionWeighted(t *testing.T) {
	cfg := gen.Config{MaxWeight: 5}
	rng := gen.NewRNG(7)
	g := gen.TriangulatedGrid(10, 10, cfg, rng)
	n := g.NumVertices()

	// nil weights must be bit-identical to the unweighted partitioner.
	a := Partition(g, 4, 4)
	b := PartitionWeighted(g, 4, 4, nil)
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("nil-weight PartitionWeighted diverges from Partition at %d", v)
		}
	}

	// One corner vertex weighs as much as the rest of the graph; balance
	// must hold on total weight, so its part stays small in weight terms.
	weights := make([]int64, n)
	var total int64
	for v := range weights {
		weights[v] = 1
		total++
	}
	weights[0] = int64(n)
	total += int64(n) - 1
	part := PartitionWeighted(g, 2, 6, weights)
	var w0, w1 int64
	for v, p := range part {
		if p == 0 {
			w0 += weights[v]
		} else {
			w1 += weights[v]
		}
	}
	if w0 == 0 || w1 == 0 {
		t.Fatalf("weighted partition left a part empty: %d/%d", w0, w1)
	}
	// The refinement cap is total/k + total/(4k) + 1; allow generous slack
	// for the pre-refinement growth phase, but the heavy vertex's part must
	// not also absorb most of the light vertices.
	heavy := part[0]
	lightInHeavy := 0
	for v := 1; v < n; v++ {
		if part[v] == heavy {
			lightInHeavy++
		}
	}
	if lightInHeavy > n/2 {
		t.Fatalf("heavy part also holds %d of %d light vertices", lightInHeavy, n-1)
	}
}

// cutEdges counts edges whose endpoints lie in different parts.
func cutEdges(g *graph.Graph, part []int32) int {
	cut := 0
	for _, e := range g.Edges() {
		if part[e.U] != part[e.V] {
			cut++
		}
	}
	return cut
}

// sizes returns the number of vertices per part.
func sizes(part []int32, k int) []int {
	s := make([]int, k)
	for _, p := range part {
		s[p]++
	}
	return s
}
