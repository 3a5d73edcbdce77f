package graph

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func triangleWithTail() *Graph {
	b := NewBuilder(5)
	b.AddEdge(0, 1, 2)
	b.AddEdge(1, 2, 3)
	b.AddEdge(2, 0, 4)
	b.AddEdge(2, 3, 1)
	b.AddEdge(3, 4, 1)
	return b.Build()
}

func TestBuilderAndCSR(t *testing.T) {
	g := triangleWithTail()
	if g.NumVertices() != 5 || g.NumEdges() != 5 {
		t.Fatalf("size wrong: %d %d", g.NumVertices(), g.NumEdges())
	}
	if g.Degree(2) != 3 || g.Degree(4) != 1 {
		t.Fatalf("degrees wrong")
	}
	// adjacency covers each edge from both sides
	count := 0
	for v := int32(0); v < 5; v++ {
		g.Neighbors(v, func(u, eid int32) bool {
			count++
			e := g.Edge(eid)
			if (e.U != v || e.V != u) && (e.V != v || e.U != u) {
				t.Fatalf("edge %d inconsistent with neighbor (%d,%d)", eid, v, u)
			}
			return true
		})
	}
	if count != 10 {
		t.Fatalf("half-edge count %d, want 10", count)
	}
	if g.TotalWeight() != 11 {
		t.Fatalf("total weight %v", g.TotalWeight())
	}
}

func TestSelfLoopDegree(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 0, 5)
	b.AddEdge(0, 1, 1)
	g := b.Build()
	if g.Degree(0) != 3 { // loop counts twice
		t.Fatalf("self-loop degree %d, want 3", g.Degree(0))
	}
	seen := 0
	g.Neighbors(0, func(u, eid int32) bool {
		if g.Edge(eid).U == g.Edge(eid).V && u != 0 {
			t.Fatal("loop neighbor wrong")
		}
		seen++
		return true
	})
	if seen != 3 {
		t.Fatalf("loop half-edges %d", seen)
	}
}

func TestNeighborsEarlyExit(t *testing.T) {
	g := triangleWithTail()
	visits := 0
	g.Neighbors(2, func(u, eid int32) bool {
		visits++
		return false
	})
	if visits != 1 {
		t.Fatalf("early exit ignored, %d visits", visits)
	}
}

func TestBuilderPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"range":    func() { NewBuilder(3).AddEdge(0, 3, 1) },
		"negative": func() { NewBuilder(3).AddEdge(0, 1, -2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestClone(t *testing.T) {
	g := triangleWithTail()
	c := g.Clone()
	if c.NumEdges() != g.NumEdges() || c.NumVertices() != g.NumVertices() {
		t.Fatal("clone size wrong")
	}
	// mutating the clone's backing edges must not affect the original
	c.Edges()[0].W = 99
	if g.Edge(0).W == 99 {
		t.Fatal("clone shares edge storage")
	}
}

func TestStats(t *testing.T) {
	g := triangleWithTail()
	var deg [4]int
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		deg[g.Degree(v)]++
	}
	if deg[1] != 1 || deg[2] != 3 || deg[3] != 1 {
		t.Fatalf("degree histogram %v", deg)
	}
	if c := CountComponents(g); c != 1 {
		t.Fatalf("components %d, want 1", c)
	}
	b := NewBuilder(4)
	b.AddEdge(0, 1, 1)
	g2 := b.Build() // 2 isolated vertices
	if c := CountComponents(g2); c != 3 {
		t.Fatalf("components %d, want 3", c)
	}
}

func TestComponentLabels(t *testing.T) {
	b := NewBuilder(6)
	b.AddEdge(0, 1, 1)
	b.AddEdge(2, 3, 1)
	b.AddEdge(3, 4, 1)
	g := b.Build()
	labels, count := ComponentLabels(g)
	if count != 3 {
		t.Fatalf("count %d", count)
	}
	if labels[0] != labels[1] || labels[2] != labels[3] || labels[3] != labels[4] {
		t.Fatal("labels inconsistent")
	}
	if labels[0] == labels[2] || labels[5] == labels[0] || labels[5] == labels[2] {
		t.Fatal("distinct components share a label")
	}
}

func TestSubgraphInducedByEdges(t *testing.T) {
	g := triangleWithTail()
	sub := InducedByEdges(g, []int32{0, 1, 2}) // the triangle
	if sub.G.NumVertices() != 3 || sub.G.NumEdges() != 3 {
		t.Fatalf("triangle subgraph wrong: %d %d", sub.G.NumVertices(), sub.G.NumEdges())
	}
	for localE, parentE := range sub.ToParentEdge {
		le := sub.G.Edge(int32(localE))
		pe := g.Edge(parentE)
		if le.W != pe.W {
			t.Fatal("edge weight lost in subgraph")
		}
		pu := sub.ToParentVertex[le.U]
		pv := sub.ToParentVertex[le.V]
		if !((pu == pe.U && pv == pe.V) || (pu == pe.V && pv == pe.U)) {
			t.Fatal("vertex map inconsistent")
		}
	}
	for _, parent := range sub.ToParentVertex {
		if parent == 4 {
			t.Fatal("the tail vertex is not in the triangle")
		}
	}
}

func TestSubgraphInducedByVertices(t *testing.T) {
	g := triangleWithTail()
	sub := InducedByVertices(g, []int32{0, 1, 2})
	if sub.G.NumEdges() != 3 {
		t.Fatalf("induced edges %d, want 3", sub.G.NumEdges())
	}
	sub2 := InducedByVertices(g, []int32{2, 3, 4})
	if sub2.G.NumEdges() != 2 {
		t.Fatalf("induced path edges %d, want 2", sub2.G.NumEdges())
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := triangleWithTail()
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatal("round trip size wrong")
	}
	for i, e := range g.Edges() {
		if g2.Edge(int32(i)) != e {
			t.Fatalf("edge %d differs", i)
		}
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	if _, err := ReadEdgeList(strings.NewReader("1\n")); err == nil {
		t.Fatal("short line should error")
	}
	if _, err := ReadEdgeList(strings.NewReader("a b\n")); err == nil {
		t.Fatal("non-numeric should error")
	}
	if _, err := ReadEdgeList(strings.NewReader("-1 2\n")); err == nil {
		t.Fatal("negative vertex should error")
	}
	g, err := ReadEdgeList(strings.NewReader("# comment\n0 1\n1 2 3.5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 || g.Edge(0).W != 1 || g.Edge(1).W != 3.5 {
		t.Fatal("defaults/weights wrong")
	}
}

func TestReadDIMACS(t *testing.T) {
	in := `c comment
p sp 4 3
a 1 2 5
a 2 1 5
a 2 3 7
a 3 4 2
`
	g, err := ReadDIMACS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 4 || g.NumEdges() != 3 {
		t.Fatalf("dimacs parse wrong: %d %d", g.NumVertices(), g.NumEdges())
	}
	if g.Edge(0).W != 5 {
		t.Fatal("weight lost")
	}
	if _, err := ReadDIMACS(strings.NewReader("a 1 2 3\n")); err == nil {
		t.Fatal("missing problem line should error")
	}
}

func TestReadMatrixMarket(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real symmetric
% comment
3 3 3
1 2 1.5
2 3 -2.0
3 3 4.0
`
	g, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("mm parse wrong: %d %d", g.NumVertices(), g.NumEdges())
	}
	if g.Edge(1).W != 2.0 {
		t.Fatal("negative value should be taken absolute")
	}
	if g.Edge(2).U != g.Edge(2).V {
		t.Fatal("diagonal should become a self-loop")
	}
	pat := `%%MatrixMarket matrix coordinate pattern symmetric
2 2 1
1 2
`
	g2, err := ReadMatrixMarket(strings.NewReader(pat))
	if err != nil {
		t.Fatal(err)
	}
	if g2.Edge(0).W != 1 {
		t.Fatal("pattern weight should default to 1")
	}
	if _, err := ReadMatrixMarket(strings.NewReader("not a header\n")); err == nil {
		t.Fatal("bad header should error")
	}
	if _, err := ReadMatrixMarket(strings.NewReader("%%MatrixMarket matrix coordinate real general\n2 3 1\n1 2 1\n")); err == nil {
		t.Fatal("non-square should error")
	}
}

// Property: CSR adjacency is an exact double cover of the edge list for
// arbitrary multigraphs (including self-loops), and its parallel arrays
// (neighbour, edge ID, weight) describe the same half-edge at each index.
func TestCSRDoubleCoverProperty(t *testing.T) {
	f := func(pairs []uint16, weightSeed byte) bool {
		const n = 12
		b := NewBuilder(n)
		for _, p := range pairs {
			u := int32(p % n)
			v := int32((p / n) % n)
			b.AddEdge(u, v, float64(p%7)+1)
		}
		g := b.Build()
		counts := make([]int, g.NumEdges())
		for v := int32(0); v < n; v++ {
			g.Neighbors(v, func(u, eid int32) bool {
				counts[eid]++
				return true
			})
		}
		for _, c := range counts {
			if c != 2 {
				return false
			}
		}
		// The parallel arrays agree: each half-edge carries its edge's
		// weight and the far endpoint, inside the offsets AdjStart gives.
		start, node, eids, ws := g.AdjStart(), g.AdjNode(), g.AdjEdge(), g.AdjWeight()
		if len(start) != n+1 || len(ws) != len(node) || len(eids) != len(node) || int(start[n]) != len(node) {
			return false
		}
		for v := int32(0); v < n; v++ {
			if lo, hi := g.AdjacencyRange(v); lo != start[v] || hi != start[v+1] {
				return false
			}
			for i := start[v]; i < start[v+1]; i++ {
				// node[i] is the far endpoint: U+V-v, v itself on a self-loop.
				if e := g.Edge(eids[i]); ws[i] != e.W || node[i] != e.U+e.V-v {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
