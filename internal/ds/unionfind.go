package ds

// UnionFind is a disjoint-set forest with union by rank and path halving.
// It is used for spanning tree construction and connectivity checks.
type UnionFind struct {
	parent []int32
	rank   []int8
}

// NewUnionFind returns a structure with n singleton sets {0}..{n-1}.
func NewUnionFind(n int) *UnionFind {
	u := &UnionFind{
		parent: make([]int32, n),
		rank:   make([]int8, n),
	}
	for i := range u.parent {
		u.parent[i] = int32(i)
	}
	return u
}

// Find returns the representative of the set containing x.
func (u *UnionFind) Find(x int32) int32 {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]] // path halving
		x = u.parent[x]
	}
	return x
}

// Union merges the sets containing x and y and reports whether they were
// previously distinct.
func (u *UnionFind) Union(x, y int32) bool {
	rx, ry := u.Find(x), u.Find(y)
	if rx == ry {
		return false
	}
	if u.rank[rx] < u.rank[ry] {
		rx, ry = ry, rx
	}
	u.parent[ry] = rx
	if u.rank[rx] == u.rank[ry] {
		u.rank[rx]++
	}
	return true
}
