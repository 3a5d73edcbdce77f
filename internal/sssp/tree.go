package sssp

import (
	"repro/internal/graph"
)

// Tree is a rooted shortest path tree in a convenient form for the MCB
// label computation (Algorithm 3): level order for root-to-leaf passes,
// depths for sizing candidate cycles.
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
	// Child lists by one counting sort over Parent: v's children are
	// children[start[v]:start[v+1]], in ascending vertex order.
	start := make([]int32, n+1)
	for _, p := range res.Parent {
		if p >= 0 {
			start[p+1]++
		}
	}
	for v := 0; v < n; v++ {
		start[v+1] += start[v]
	}
	children := make([]int32, start[n])
	fill := append([]int32(nil), start[:n]...)
	for v, p := range res.Parent {
		if p >= 0 {
			children[fill[p]] = int32(v)
			fill[p]++
		}
	}
	t.Order = make([]int32, 0, n)
	t.Order = append(t.Order, t.Root)
	for qi := 0; qi < len(t.Order); qi++ {
		v := t.Order[qi]
		for _, c := range children[start[v]:start[v+1]] {
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
