package graph

// Subgraph is an induced or edge-induced subgraph together with the maps
// between its local vertex/edge IDs and those of the parent graph. The BCC
// decomposition hands each biconnected component to the ear/APSP/MCB
// machinery as a Subgraph so results can be translated back.
type Subgraph struct {
	G *Graph
	// ToParentVertex[x] is the parent ID of local vertex x.
	ToParentVertex []int32
	// ToParentEdge[e] is the parent edge ID of local edge e.
	ToParentEdge []int32
}

// InducedByEdges builds the subgraph containing exactly the given parent
// edge IDs and the vertices they touch. Local vertex IDs are assigned in
// order of first appearance.
func InducedByEdges(g *Graph, edgeIDs []int32) *Subgraph {
	toLocal := make(map[int32]int32, len(edgeIDs))
	var verts []int32
	local := func(v int32) int32 {
		if x, ok := toLocal[v]; ok {
			return x
		}
		x := int32(len(verts))
		toLocal[v] = x
		verts = append(verts, v)
		return x
	}
	edges := make([]Edge, 0, len(edgeIDs))
	toParentEdge := make([]int32, 0, len(edgeIDs))
	for _, id := range edgeIDs {
		e := g.Edge(id)
		edges = append(edges, Edge{U: local(e.U), V: local(e.V), W: e.W})
		toParentEdge = append(toParentEdge, id)
	}
	return &Subgraph{
		G:              FromEdges(len(verts), edges),
		ToParentVertex: verts,
		ToParentEdge:   toParentEdge,
	}
}

// InducedByVertices builds the subgraph induced by the given parent
// vertices: it contains every parent edge whose both endpoints are listed.
func InducedByVertices(g *Graph, vertices []int32) *Subgraph {
	toLocal := make(map[int32]int32, len(vertices))
	verts := make([]int32, len(vertices))
	copy(verts, vertices)
	for i, v := range verts {
		toLocal[v] = int32(i)
	}
	var edges []Edge
	var toParentEdge []int32
	for id, e := range g.Edges() {
		lu, ok1 := toLocal[e.U]
		lv, ok2 := toLocal[e.V]
		if ok1 && ok2 {
			edges = append(edges, Edge{U: lu, V: lv, W: e.W})
			toParentEdge = append(toParentEdge, int32(id))
		}
	}
	return &Subgraph{
		G:              FromEdges(len(verts), edges),
		ToParentVertex: verts,
		ToParentEdge:   toParentEdge,
	}
}
