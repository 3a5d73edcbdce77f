// Package ear implements the ear decomposition of biconnected graphs and
// the degree-2 chain contraction that produces the paper's reduced graph
// G^r (Section 2.1.1).
//
// Two artefacts are produced:
//
//   - Decompose: an explicit open ear decomposition P0, P1, ... via
//     Schmidt's chain decomposition (each chain of the DFS-based chain
//     decomposition of a biconnected graph is an ear; the first is a
//     cycle).
//   - Reduce: the reduced graph G^r whose vertices are the degree-≥3
//     vertices of G, with every maximal chain of degree-2 vertices
//     contracted to a single weighted edge, plus the left/right anchor
//     tables the APSP post-processing needs and the chain arrays the MCB
//     post-processing uses to expand basis cycles (Lemma 3.1).
package ear

import (
	"fmt"

	"repro/internal/graph"
)

// Ear is one ear of the decomposition: a path (or, for the first ear, a
// cycle) given by its vertex sequence and the edge IDs between consecutive
// vertices.
type Ear struct {
	// Vertices has len(Edges)+1 entries; for the first ear (a cycle) the
	// first and last vertex coincide.
	Vertices []int32
	Edges    []int32
}

// Decompose returns an ear decomposition of a connected biconnected graph
// using Schmidt's chain decomposition. It returns an error if the graph is
// not 2-edge-connected (some edge on no chain) or not 2-vertex-connected
// (a later chain is a cycle), which doubles as a biconnectivity test.
func Decompose(g *graph.Graph) ([]Ear, error) {
	n := g.NumVertices()
	if n == 0 {
		return nil, nil
	}
	if n == 1 {
		// A single vertex with self-loops: each loop is an ear.
		var ears []Ear
		for id, e := range g.Edges() {
			if e.U == e.V {
				ears = append(ears, Ear{Vertices: []int32{e.U, e.U}, Edges: []int32{int32(id)}})
			}
		}
		return ears, nil
	}

	// DFS from vertex 0: disc numbers, parents.
	disc := make([]int32, n)
	parent := make([]int32, n)
	parentEdge := make([]int32, n)
	for i := range disc {
		disc[i] = -1
		parent[i] = -1
		parentEdge[i] = -1
	}
	order := make([]int32, 0, n)
	adjNode, adjEdge := g.AdjNode(), g.AdjEdge()
	isTreeEdge := make([]bool, g.NumEdges())
	{
		type frame struct {
			v int32
			i int32
		}
		var stack []frame
		disc[0] = 0
		order = append(order, 0)
		timer := int32(1)
		lo, _ := g.AdjacencyRange(0)
		stack = append(stack, frame{0, lo})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			v := f.v
			_, hi := g.AdjacencyRange(v)
			if f.i >= hi {
				stack = stack[:len(stack)-1]
				continue
			}
			i := f.i
			f.i++
			u, eid := adjNode[i], adjEdge[i]
			if disc[u] >= 0 || u == v {
				continue
			}
			disc[u] = timer
			timer++
			parent[u] = v
			parentEdge[u] = eid
			isTreeEdge[eid] = true
			order = append(order, u)
			ulo, _ := g.AdjacencyRange(u)
			stack = append(stack, frame{u, ulo})
		}
		if int(timer) != n {
			return nil, fmt.Errorf("ear: graph is not connected (%d of %d vertices reached)", timer, n)
		}
	}

	// Schmidt's chains: iterate vertices v in DFS order; for each back edge
	// (v,w) with v the ancestor (disc[v] < disc[w]), walk from w up the tree
	// until a visited vertex, marking interiors visited. Chain = back edge
	// + traversed tree path, oriented v → w → ... → terminal.
	visited := make([]bool, n)
	usedEdge := make([]bool, g.NumEdges())
	visited[0] = true
	var ears []Ear
	for _, v := range order {
		lo, hi := g.AdjacencyRange(v)
		for i := lo; i < hi; i++ {
			w, eid := adjNode[i], adjEdge[i]
			if isTreeEdge[eid] || usedEdge[eid] {
				continue
			}
			if w != v && disc[w] < disc[v] {
				continue // will be processed from the ancestor endpoint
			}
			usedEdge[eid] = true
			if w == v {
				// self-loop: a (degenerate, closed) ear by itself
				ears = append(ears, Ear{Vertices: []int32{v, v}, Edges: []int32{eid}})
				continue
			}
			e := Ear{Vertices: []int32{v, w}, Edges: []int32{eid}}
			x := w
			for !visited[x] {
				visited[x] = true
				pe := parentEdge[x]
				if pe < 0 {
					return nil, fmt.Errorf("ear: chain walk escaped the tree at %d", x)
				}
				usedEdge[pe] = true
				x = parent[x]
				e.Vertices = append(e.Vertices, x)
				e.Edges = append(e.Edges, pe)
			}
			closed := e.Vertices[0] == e.Vertices[len(e.Vertices)-1]
			if closed && len(ears) > 0 {
				return nil, fmt.Errorf("ear: graph is not 2-vertex-connected (chain %d is a cycle)", len(ears))
			}
			if !visited[v] {
				// In a biconnected graph every chain starts at an already
				// covered vertex; v unvisited means a cut vertex above us.
				return nil, fmt.Errorf("ear: graph is not biconnected at vertex %d", v)
			}
			ears = append(ears, e)
		}
	}
	for eid := range usedEdge {
		if !usedEdge[eid] && !isTreeEdge[eid] {
			return nil, fmt.Errorf("ear: internal error: back edge %d on no chain", eid)
		}
	}
	// 2-edge-connectivity: every tree edge must lie on some chain.
	for eid, tree := range isTreeEdge {
		if tree && !usedEdge[eid] {
			return nil, fmt.Errorf("ear: graph is not 2-edge-connected (bridge edge %d)", eid)
		}
	}
	return ears, nil
}
