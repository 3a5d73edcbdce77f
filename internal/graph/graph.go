// Package graph provides the weighted undirected multigraph representation
// shared by every algorithm in this repository.
//
// Graphs are immutable once built. Construction goes through a Builder;
// Build produces a CSR (compressed sparse row) adjacency structure in which
// every undirected edge appears twice (once per endpoint) but carries a
// single stable edge ID. Stable edge IDs matter: the minimum cycle basis
// engine indexes GF(2) incidence vectors by edge ID, and the ear
// decomposition maps reduced-graph edges back to chains of original edges.
//
// Parallel edges and self-loops are permitted — reduced graphs produced by
// ear contraction naturally contain both (Section 3.3.1 of the paper), and
// the MCB algorithm treats them as non-tree edges.
package graph

import "fmt"

// Weight is the edge weight type. Generators produce small integral values
// so that sums of weights along paths stay exact in float64.
type Weight = float64

// Edge is a single undirected edge.
type Edge struct {
	U, V int32
	W    Weight
}

// Graph is an immutable weighted undirected multigraph in CSR form.
type Graph struct {
	n     int
	edges []Edge

	// CSR adjacency: for vertex v, the incident half-edges are
	// adjNode[adjStart[v]:adjStart[v+1]] (neighbour endpoint) paired with
	// adjEdge (edge ID) and adjW (that edge's weight, so a relaxation reads
	// it beside the neighbour instead of through edges[adjEdge[i]]). A
	// self-loop contributes two half-edges at v.
	adjStart []int32
	adjNode  []int32
	adjEdge  []int32
	adjW     []Weight
}

// Builder accumulates edges before freezing them into a Graph.
type Builder struct {
	n     int
	edges []Edge
}

// NewBuilder returns a builder for a graph on n vertices 0..n-1.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// AddEdge appends an undirected edge {u,v} with weight w and returns its
// edge ID. Self-loops (u == v) and parallel edges are allowed. Negative
// weights are rejected: every algorithm in this repository assumes
// non-negative weights (Dijkstra, Horton cycles).
func (b *Builder) AddEdge(u, v int32, w Weight) int32 {
	if u < 0 || int(u) >= b.n || v < 0 || int(v) >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	if w < 0 {
		panic(fmt.Sprintf("graph: negative weight %v on edge (%d,%d)", w, u, v))
	}
	id := int32(len(b.edges))
	b.edges = append(b.edges, Edge{U: u, V: v, W: w})
	return id
}

// NumEdges reports the number of edges added so far.
func (b *Builder) NumEdges() int { return len(b.edges) }

// Build freezes the accumulated edges into an immutable Graph.
func (b *Builder) Build() *Graph {
	return FromEdges(b.n, b.edges)
}

// FromEdges constructs a graph directly from an edge slice. The slice is
// retained; callers must not mutate it afterwards.
func FromEdges(n int, edges []Edge) *Graph {
	g := &Graph{n: n, edges: edges}
	deg := make([]int32, n+1)
	for _, e := range edges {
		deg[e.U+1]++
		deg[e.V+1]++
	}
	for i := 0; i < n; i++ {
		deg[i+1] += deg[i]
	}
	g.adjStart = deg
	total := deg[n]
	g.adjNode = make([]int32, total)
	g.adjEdge = make([]int32, total)
	g.adjW = make([]Weight, total)
	fill := make([]int32, n)
	copy(fill, deg[:n])
	for id, e := range edges {
		g.adjNode[fill[e.U]] = e.V
		g.adjEdge[fill[e.U]] = int32(id)
		g.adjW[fill[e.U]] = e.W
		fill[e.U]++
		g.adjNode[fill[e.V]] = e.U
		g.adjEdge[fill[e.V]] = int32(id)
		g.adjW[fill[e.V]] = e.W
		fill[e.V]++
	}
	return g
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Edge returns the edge with the given ID.
func (g *Graph) Edge(id int32) Edge { return g.edges[id] }

// Edges returns the backing edge slice. Callers must not mutate it.
func (g *Graph) Edges() []Edge { return g.edges }

// Degree returns the degree of v; a self-loop counts twice, matching the
// standard definition used by the ear decomposition (a vertex with one
// self-loop and one other edge has degree 3 and is kept in the reduced
// graph).
func (g *Graph) Degree(v int32) int {
	return int(g.adjStart[v+1] - g.adjStart[v])
}

// Neighbors calls fn for every half-edge incident to v with the neighbour
// endpoint and the edge ID. For a self-loop at v, fn is invoked twice with
// u == v. Iteration stops early if fn returns false.
func (g *Graph) Neighbors(v int32, fn func(u int32, eid int32) bool) {
	for i := g.adjStart[v]; i < g.adjStart[v+1]; i++ {
		if !fn(g.adjNode[i], g.adjEdge[i]) {
			return
		}
	}
}

// AdjacencyRange returns the CSR slice bounds for v so that hot loops can
// iterate without a closure.
func (g *Graph) AdjacencyRange(v int32) (lo, hi int32) {
	return g.adjStart[v], g.adjStart[v+1]
}

// AdjNode and AdjEdge expose the CSR arrays for closure-free iteration:
//
//	lo, hi := g.AdjacencyRange(v)
//	for i := lo; i < hi; i++ {
//	    u, eid := g.AdjNode()[i], g.AdjEdge()[i]
//	    ...
//	}
func (g *Graph) AdjNode() []int32 { return g.adjNode }

// AdjEdge returns the CSR edge-ID array parallel to AdjNode.
func (g *Graph) AdjEdge() []int32 { return g.adjEdge }

// AdjWeight returns the CSR weight array parallel to AdjNode:
// AdjWeight()[i] == Edge(AdjEdge()[i]).W.
func (g *Graph) AdjWeight() []Weight { return g.adjW }

// AdjStart returns the CSR offsets (length n+1): v's half-edges are
// [AdjStart()[v], AdjStart()[v+1]), the same bounds AdjacencyRange returns.
func (g *Graph) AdjStart() []int32 { return g.adjStart }

// TotalWeight returns the sum of all edge weights.
func (g *Graph) TotalWeight() Weight {
	var s Weight
	for _, e := range g.edges {
		s += e.W
	}
	return s
}

// Clone returns a deep copy whose edge slice is independent of g.
func (g *Graph) Clone() *Graph {
	edges := make([]Edge, len(g.edges))
	copy(edges, g.edges)
	return FromEdges(g.n, edges)
}
