package mcb

import (
	"cmp"
	"context"
	"slices"

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
	roots []int32
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
// Both stages fan out over a workers-sized pool, one root per work unit:
// every root's tree and candidate list depend only on the (immutable) graph
// and that root, so the per-root outputs land in pre-sized slots and are
// merged in root order afterwards. The merged list — and therefore the
// stable weight sort below — is bit-identical to a sequential run at any
// worker count. Cancelling ctx stops the fan-out between work units and
// returns the context error with no candidate set.
func buildCandidatesCtx(ctx context.Context, g *graph.Graph, roots []int32, workers int) (*candidateSet, error) {
	cs := &candidateSet{g: g, roots: roots}
	cs.trees = make([]*sssp.Tree, len(roots))
	cs.depths = make([]int, len(roots))
	treeOps := make([]int64, len(roots))
	scratch := make([]*sssp.Scratch, max(workers, 1))
	for i := range scratch {
		scratch[i] = sssp.NewScratch(g.NumVertices())
	}
	err := par.ParallelForCtx(ctx, workers, len(roots), func(w, ri int) {
		res := sssp.Dijkstra(g, roots[ri], scratch[w])
		treeOps[ri] = res.Relaxations
		t := sssp.BuildTree(res)
		cs.trees[ri] = t
		depth := 0
		for _, v := range t.Order {
			if int(t.Depth[v]) > depth {
				depth = int(t.Depth[v])
			}
		}
		cs.depths[ri] = depth + 1 // sweeps = height+1
	})
	if err != nil {
		return nil, err
	}
	for _, ops := range treeOps {
		cs.TreeOps += ops
	}
	perRoot := make([][]candidate, len(roots))
	rejected := make([]int64, len(roots))
	err = par.ParallelForCtx(ctx, workers, len(roots), func(_, ri int) {
		z := roots[ri]
		t := cs.trees[ri]
		var out []candidate
		for eid, e := range g.Edges() {
			if e.U == e.V {
				continue // self-loops handled once below
			}
			if t.ParentEdge[e.U] == int32(eid) || t.ParentEdge[e.V] == int32(eid) {
				continue // tree edge of T_z
			}
			if !t.InTree(e.U) || !t.InTree(e.V) {
				continue // unreachable from z
			}
			if t.LCA(e.U, e.V) != z {
				// Mehlhorn–Michail isometric filter: when z is not the
				// least common ancestor, the two tree paths share edges
				// and the candidate degenerates to a closed walk rather
				// than a simple cycle. Rejected records how much of the
				// raw Horton set the filter prunes.
				rejected[ri]++
				continue
			}
			w := t.Dist[e.U] + e.W + t.Dist[e.V]
			out = append(out, candidate{root: int32(ri), edge: int32(eid), weight: w})
		}
		perRoot[ri] = out
	})
	if err != nil {
		return nil, err
	}
	for ri := range perRoot {
		cs.cands = append(cs.cands, perRoot[ri]...)
		cs.Rejected += rejected[ri]
	}
	for eid, e := range g.Edges() {
		if e.U == e.V {
			cs.cands = append(cs.cands, candidate{root: -1, edge: int32(eid), weight: e.W})
		}
	}
	// Weight order, ties in the order listed above (roots in order, then
	// self-loops; edges in ID order within each): a total order, so the
	// unstable sort gives what a stable sort by weight alone would.
	slices.SortFunc(cs.cands, func(a, b candidate) int {
		if c := cmp.Compare(a.weight, b.weight); c != 0 {
			return c
		}
		return cmp.Or(cmp.Compare(uint32(a.root), uint32(b.root)), cmp.Compare(a.edge, b.edge))
	})
	return cs, nil
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
