package sssp

import (
	"repro/internal/graph"
)

// Tree is a rooted shortest path tree in a convenient form for the MCB
// label computation (Algorithm 3): level order for root-to-leaf passes,
// depths for LCA checks on candidate cycles.
type Tree struct {
	Root       int32
	Parent     []int32
	ParentEdge []int32
	Dist       []graph.Weight
	Depth      []int32
	// Order lists reachable vertices in non-decreasing depth (level order),
	// starting with the root, so a single forward scan visits parents
	// before children.
	Order []int32
}

// BuildTree converts a shortest path Result into a Tree.
func BuildTree(res *Result) *Tree {
	n := len(res.Dist)
	t := &Tree{
		Root:       res.Source,
		Parent:     res.Parent,
		ParentEdge: res.ParentEdge,
		Dist:       res.Dist,
		Depth:      make([]int32, n),
	}
	children := make([][]int32, n)
	for v := int32(0); v < int32(n); v++ {
		if p := res.Parent[v]; p >= 0 {
			children[p] = append(children[p], v)
		}
	}
	t.Order = make([]int32, 0, n)
	t.Order = append(t.Order, t.Root)
	for qi := 0; qi < len(t.Order); qi++ {
		v := t.Order[qi]
		for _, c := range children[v] {
			t.Depth[c] = t.Depth[v] + 1
			t.Order = append(t.Order, c)
		}
	}
	return t
}

// InTree reports whether v was reached from the root.
func (t *Tree) InTree(v int32) bool {
	return v == t.Root || t.Parent[v] >= 0
}

// LCA returns the least common ancestor of u and v by walking up from the
// deeper endpoint. The MCB candidate filter calls it once per (root,
// non-tree edge) pair; tree depths are small on the reduced graphs it runs
// on, so the O(depth) walk beats precomputing jump tables.
func (t *Tree) LCA(u, v int32) int32 {
	for t.Depth[u] > t.Depth[v] {
		u = t.Parent[u]
	}
	for t.Depth[v] > t.Depth[u] {
		v = t.Parent[v]
	}
	for u != v {
		u = t.Parent[u]
		v = t.Parent[v]
	}
	return u
}
