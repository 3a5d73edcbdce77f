package mcb

import (
	"context"
	"math"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/sssp"
)

// candidate is one Horton/isometric candidate cycle C_ze: the shortest
// path tree rooted at roots[root] plus the non-tree edge `edge`, of total
// (perturbed) weight `weight`. Self-loop cycles carry root == -1.
type candidate struct {
	root   int32 // index into the roots slice, -1 for self-loops
	edge   int32 // edge ID in the working graph
	weight graph.Weight
}

// candidateSet is the processing-phase state shared by all drivers: the
// shortest path trees from every root and the weight-sorted candidate list.
type candidateSet struct {
	g     *graph.Graph
	trees []*sssp.Tree
	// depth[ri] is the height of tree ri (the number of level-synchronous
	// sweeps a GPU label kernel needs).
	depths []int
	cands  []candidate
	// TreeOps is the Dijkstra work of building the trees; Rejected counts
	// Horton cycles discarded by the isometric (LCA) filter.
	TreeOps  int64
	Rejected int64
}

// buildCandidatesCtx constructs the shortest path trees from each root and
// enumerates the candidate cycles, applying the Mehlhorn–Michail filter:
// keep C_ze only when z is the least common ancestor of e's endpoints in
// T_z (Section 3.3.2), which prunes the Horton set to the isometric
// candidates; Rejected records the pruned count.
//
// The work fans out over a workers-sized pool, one root per work unit:
// every root's tree and candidate list depend only on the (immutable) graph
// and that root. A root has no more candidates than its component has
// non-tree edges, so root ri's land in all[ri*f:(ri+1)*f], f = Dim(g), and
// are compacted in root order afterwards. The compacted list — and
// therefore the stable weight sort below — is bit-identical to a
// sequential run at any worker count. Cancelling ctx stops the fan-out
// between work units and returns the context error with no candidate set.
func buildCandidatesCtx(ctx context.Context, g *graph.Graph, roots []int32, workers int) (*candidateSet, error) {
	cs := &candidateSet{g: g, trees: make([]*sssp.Tree, len(roots)), depths: make([]int, len(roots))}
	treeOps, rejected, count := make([]int64, len(roots)), make([]int64, len(roots)), make([]int, len(roots))
	f := Dim(g)
	all := make([]candidate, len(roots)*f)
	// Each worker keeps its Dijkstra scratch and its branch labels.
	scratch, branch := make([]*sssp.Scratch, max(workers, 1)), make([][]int32, max(workers, 1))
	err := par.ParallelForCtx(ctx, workers, len(roots), func(w, ri int) {
		if scratch[w] == nil {
			scratch[w], branch[w] = sssp.NewScratch(g.NumVertices()), make([]int32, g.NumVertices())
		}
		res := sssp.Dijkstra(g, roots[ri], scratch[w])
		t, b, out := sssp.BuildTree(res), branch[w], all[ri*f:(ri+1)*f]
		cs.trees[ri], treeOps[ri] = t, res.Relaxations
		// Level order ends at a deepest vertex; sweeps = height+1.
		cs.depths[ri] = int(t.Depth[t.Order[len(t.Order)-1]]) + 1
		branches(t, b)
		for eid, e := range g.Edges() {
			if e.U == e.V || t.ParentEdge[e.U] == int32(eid) || t.ParentEdge[e.V] == int32(eid) || !t.InTree(e.U) || !t.InTree(e.V) {
				continue // self-loops come once below; tree edges of T_z and edges z does not reach are no candidates
			}
			if b[e.U] == b[e.V] {
				// Mehlhorn–Michail isometric filter: when z is not the least
				// common ancestor, the two tree paths share edges and the
				// candidate degenerates to a closed walk, not a simple cycle.
				rejected[ri]++
				continue
			}
			out[count[ri]] = candidate{root: int32(ri), edge: int32(eid), weight: t.Dist[e.U] + e.W + t.Dist[e.V]}
			count[ri]++
		}
	})
	if err != nil {
		return nil, err
	}
	cs.cands = all[:0]
	for ri, k := range count {
		cs.cands = append(cs.cands, all[ri*f:ri*f+k]...)
		cs.TreeOps += treeOps[ri]
		cs.Rejected += rejected[ri]
	}
	for eid, e := range g.Edges() {
		if e.U == e.V {
			cs.cands = append(cs.cands, candidate{root: -1, edge: int32(eid), weight: e.W})
		}
	}
	// Weight order, ties in the order listed above (roots in order, then
	// self-loops; edges in ID order within each).
	cs.cands = sortByWeight(cs.cands)
	return cs, nil
}

// branches labels every vertex of t with the child of the root it hangs
// under, and the root with itself, in one pass over the level order: the
// root is the least common ancestor of two distinct tree vertices exactly
// when their labels differ.
func branches(t *sssp.Tree, branch []int32) {
	for _, v := range t.Order {
		if p := t.Parent[v]; p < 0 || p == t.Root {
			branch[v] = v
		} else {
			branch[v] = branch[p]
		}
	}
}

// sortByWeight is a stable LSD radix sort of cs by weight, one byte of the
// weight's bit pattern per pass, skipping a byte every candidate shares.
// Weights are ≥ 0, so their bit patterns order as they do once w + 0 has
// turned a -0 (whose pattern would sort last) into +0.
func sortByWeight(cs []candidate) []candidate {
	key := func(c candidate, shift uint) byte { return byte(math.Float64bits(c.weight+0) >> shift) }
	buf := make([]candidate, len(cs))
	for shift := uint(0); shift < 64 && len(cs) > 1; shift += 8 {
		var at [256]int
		for _, c := range cs {
			at[key(c, shift)]++
		}
		if at[key(cs[0], shift)] == len(cs) {
			continue
		}
		for b, sum := 0, 0; b < 256; b++ {
			at[b], sum = sum, sum+at[b]
		}
		for _, c := range cs {
			b := key(c, shift)
			buf[at[b]] = c
			at[b]++
		}
		cs, buf = buf, cs
	}
	return cs
}

// cycleEdges materialises the edge ID list of candidate c (tree path
// z→u, the edge, tree path v→z). With the LCA filter the two paths are
// edge-disjoint, so the list is a simple cycle.
func (cs *candidateSet) cycleEdges(c candidate) []int32 {
	if c.root < 0 {
		return []int32{c.edge}
	}
	t := cs.trees[c.root]
	e := cs.g.Edge(c.edge)
	out := append(make([]int32, 0, 1+t.Depth[e.U]+t.Depth[e.V]), c.edge)
	for x := e.U; t.Parent[x] >= 0; x = t.Parent[x] {
		out = append(out, t.ParentEdge[x])
	}
	for x := e.V; t.Parent[x] >= 0; x = t.Parent[x] {
		out = append(out, t.ParentEdge[x])
	}
	return out
}
