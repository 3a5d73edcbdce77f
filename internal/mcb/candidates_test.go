package mcb

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/sssp"
)

// lca is the least common ancestor of u and v in t, walking up from the
// deeper endpoint.
func lca(t *sssp.Tree, u, v int32) int32 {
	for t.Depth[u] > t.Depth[v] {
		u = t.Parent[u]
	}
	for t.Depth[v] > t.Depth[u] {
		v = t.Parent[v]
	}
	for u != v {
		u, v = t.Parent[u], t.Parent[v]
	}
	return u
}

// TestIsometricFilterMatchesLCA: two distinct tree vertices have different
// branch labels exactly when the root is their least common ancestor, on a
// fixed tree and on the trees of random graphs rooted at every vertex.
func TestIsometricFilterMatchesLCA(t *testing.T) {
	// 0-1, 0-2, 1-3, 1-4, 3-5 rooted at 0: LCA(3,4) = 1, LCA(5,4) = 1,
	// LCA(5,2) = 0, LCA(3,5) = 3, LCA(0,5) = 0.
	fixed := graph.FromEdges(6, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 0, V: 2, W: 1}, {U: 1, V: 3, W: 1}, {U: 1, V: 4, W: 1}, {U: 3, V: 5, W: 1}})
	tr := sssp.BuildTree(sssp.Dijkstra(fixed, 0, nil))
	branch := make([]int32, 6)
	branches(tr, branch)
	for _, c := range [][3]int32{{3, 4, 1}, {5, 4, 1}, {5, 2, 0}, {3, 5, 3}, {0, 5, 0}} {
		if got := lca(tr, c[0], c[1]); got != c[2] {
			t.Fatalf("LCA(%d,%d) = %d, want %d", c[0], c[1], got, c[2])
		}
		if root := branch[c[0]] != branch[c[1]]; root != (c[2] == 0) {
			t.Fatalf("filter says the root is LCA(%d,%d): %v; it is %d", c[0], c[1], root, c[2])
		}
	}
	for seed := uint64(1); seed <= 20; seed++ {
		rng := gen.NewRNG(seed)
		g := gen.GNM(5+rng.Intn(30), 5+rng.Intn(60), gen.Config{MaxWeight: 1 + rng.Intn(9)}, rng)
		branch := make([]int32, g.NumVertices())
		for z := int32(0); z < int32(g.NumVertices()); z++ {
			tr := sssp.BuildTree(sssp.Dijkstra(g, z, nil))
			branches(tr, branch)
			for _, u := range tr.Order {
				for _, v := range tr.Order {
					if u != v && (branch[u] != branch[v]) != (lca(tr, u, v) == z) {
						t.Fatalf("seed %d root %d: filter and LCA(%d,%d) = %d disagree", seed, z, u, v, lca(tr, u, v))
					}
				}
			}
		}
	}
}

// TestSortByWeightIsStable holds the radix sort to a stable comparison sort
// by weight on random lists full of exact ties, +0, -0, +Inf and
// subnormals.
func TestSortByWeightIsStable(t *testing.T) {
	pool := []graph.Weight{0, math.Copysign(0, -1), math.Inf(1), 1, 1.5, 2, 3, math.SmallestNonzeroFloat64, 1e-300, 1e300, math.MaxFloat64}
	rng := gen.NewRNG(5)
	for _, n := range []int{0, 1, 2, 3, 17, 256, 1000} {
		for round := 0; round < 5; round++ {
			cs := make([]candidate, n)
			for i := range cs {
				cs[i] = candidate{root: int32(i), edge: int32(n - i), weight: pool[rng.Intn(len(pool))]}
				if rng.Intn(3) == 0 {
					cs[i].weight = rng.Float64() * 4
				}
			}
			want := slices.Clone(cs)
			slices.SortStableFunc(want, func(a, b candidate) int { return cmp.Compare(a.weight, b.weight) })
			got := sortByWeight(cs)
			for i := range want {
				if got[i].root != want[i].root || math.Float64bits(got[i].weight) != math.Float64bits(want[i].weight) {
					t.Fatalf("n %d round %d: position %d holds %+v, want %+v", n, round, i, got[i], want[i])
				}
			}
		}
	}
}

// TestNegativeZeroAndTiedWeights: an MCB solve over a -0 edge and tied
// weights finds Horton's basis weight and the brute-force one.
func TestNegativeZeroAndTiedWeights(t *testing.T) {
	nz := math.Copysign(0, -1)
	g := graph.FromEdges(5, []graph.Edge{
		{U: 0, V: 1, W: nz}, {U: 1, V: 2, W: 1}, {U: 2, V: 0, W: 1}, {U: 2, V: 3, W: 1}, {U: 3, V: 0, W: 1},
		{U: 3, V: 4, W: nz}, {U: 4, V: 1, W: 2}, {U: 1, V: 3, W: 2}, {U: 4, V: 4, W: nz}, {U: 0, V: 4, W: 1}})
	want := bruteForceMCBWeightExact(t, g)
	for _, useEar := range []bool{false, true} {
		res := Compute(g, Options{UseEar: useEar})
		verifyBasis(t, g, res, "negative-zero")
		if h := HortonMCB(g, useEar, 0); res.TotalWeight != h.TotalWeight || res.TotalWeight != want {
			t.Fatalf("ear=%v: weight %v, Horton %v, brute force %v", useEar, res.TotalWeight, h.TotalWeight, want)
		}
	}
}
