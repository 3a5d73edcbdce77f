package mcb

import (
	"repro/internal/bitvec"
	"repro/internal/ds"
	"repro/internal/graph"
)

// This file implements the signed auxiliary graph search of Section 3.2.1
// (De Pina's original method): to find the minimum weight cycle C with
// <C, S> = 1, build a two-level graph with vertices v⁺ and v⁻ where an
// edge e keeps levels (u⁺–v⁺, u⁻–v⁻) when S(e) = 0 and switches levels
// (u⁺–v⁻, u⁻–v⁺) when S(e) = 1. A path from z⁺ to z⁻ changes level an odd
// number of times, so it induces a closed walk whose GF(2) edge sum is a
// cycle with odd intersection with S; the shortest such path over the
// feedback-vertex-set roots yields the minimum weight cycle.
//
// The labelled-tree search (labels.go) is asymptotically better and is the
// paper's production path; this search is retained as the classical
// alternative, an independent cross-check, and an ablation point.

// signedSearcher holds the per-graph state reused across phases. The
// auxiliary topology is fixed; only the level-switching pattern (which
// depends on the witness S) changes, so the search consults S on the fly
// instead of rebuilding the graph.
type signedSearcher struct {
	g     *graph.Graph
	sp    *spanning
	roots []int32
	// scratch for Dijkstra over the 2n auxiliary vertices: vertex 2v is
	// v⁺, vertex 2v+1 is v⁻.
	dist       []graph.Weight
	parent     []int32 // auxiliary predecessor
	parentEdge []int32 // original edge used
	heap       *ds.IndexedHeap
	// Ops counts relaxations for the device model.
	Ops int64
}

func newSignedSearcher(g *graph.Graph, sp *spanning, roots []int32) *signedSearcher {
	n := 2 * g.NumVertices()
	return &signedSearcher{
		g:          g,
		sp:         sp,
		roots:      roots,
		dist:       make([]graph.Weight, n),
		parent:     make([]int32, n),
		parentEdge: make([]int32, n),
		heap:       ds.NewIndexedHeap(n),
	}
}

// next is De Pina's search behind the phase loop's seam: the edge IDs
// (with cancellation applied) of a minimum weight cycle non-orthogonal to
// S_i, or ok=false when none exists; ops are the relaxations it took. It
// reads S_i as it stands, so xor has nothing to track.
func (ss *signedSearcher) next(wit []*bitvec.Vector, i int) (edges []int32, ops int64, ok bool) {
	before, s := ss.Ops, wit[i]
	g := ss.g
	bestW := graph.Weight(0)
	var bestVec *bitvec.Vector
	found := false
	// Self-loops with S(e)=1 are odd cycles of their own weight and are
	// invisible to the two-level walk (they connect v⁺–v⁻ directly);
	// consider them explicitly.
	for id, e := range g.Edges() {
		if e.U != e.V {
			continue
		}
		if idx := ss.sp.nontreeIndex[id]; idx >= 0 && s.Get(int(idx)) {
			if !found || e.W < bestW {
				bestW = e.W
				v := bitvec.New(g.NumEdges())
				v.Set(id, true)
				bestVec = v
				found = true
			}
		}
	}
	for _, z := range ss.roots {
		w, vec, hit := ss.searchFrom(z, s, bestW, found)
		if hit && (!found || w < bestW) {
			bestW = w
			bestVec = vec
			found = true
		}
	}
	if !found {
		return nil, ss.Ops - before, false
	}
	edges = make([]int32, 0, bestVec.PopCount())
	for _, idx := range bestVec.Ones() {
		edges = append(edges, int32(idx))
	}
	return edges, ss.Ops - before, true
}

func (*signedSearcher) xor(int, int) {}

// searchFrom runs Dijkstra from z⁺ in the signed graph and, if z⁻ is
// reached (cheaper than the current best when bounded), extracts the
// induced cycle vector over the full edge set.
func (ss *signedSearcher) searchFrom(z int32, s *bitvec.Vector, bound graph.Weight, bounded bool) (graph.Weight, *bitvec.Vector, bool) {
	g := ss.g
	n := 2 * g.NumVertices()
	for i := 0; i < n; i++ {
		ss.dist[i] = inf
		ss.parent[i] = -1
		ss.parentEdge[i] = -1
	}
	ss.heap.Reset()
	src := 2 * z // z⁺
	dst := src + 1
	ss.dist[src] = 0
	ss.heap.Push(src, 0)
	adjNode, adjEdge := g.AdjNode(), g.AdjEdge()
	edgesArr := g.Edges()
	for ss.heap.Len() > 0 {
		av, dv := ss.heap.Pop()
		if av == dst {
			break
		}
		if bounded && dv >= bound {
			break // cannot improve on the best cycle found so far
		}
		v := av / 2
		level := av & 1
		lo, hi := g.AdjacencyRange(v)
		for i := lo; i < hi; i++ {
			u, eid := adjNode[i], adjEdge[i]
			if u == v {
				continue // self-loops handled separately
			}
			ss.Ops++
			switched := false
			if idx := ss.sp.nontreeIndex[eid]; idx >= 0 && s.Get(int(idx)) {
				switched = true
			}
			tl := level
			if switched {
				tl = 1 - level
			}
			au := 2*u + tl
			if nd := dv + edgesArr[eid].W; nd < ss.dist[au] {
				ss.dist[au] = nd
				ss.parent[au] = av
				ss.parentEdge[au] = eid
				ss.heap.PushOrDecrease(au, nd)
			}
		}
	}
	if ss.dist[dst] >= inf {
		return 0, nil, false
	}
	// Extract the walk and reduce it to a cycle vector by GF(2)
	// cancellation; recompute the weight from the surviving edges (a walk
	// can traverse an edge in both levels, which cancels).
	vec := bitvec.New(g.NumEdges())
	for av := dst; av != src && ss.parent[av] >= 0; av = ss.parent[av] {
		vec.Flip(int(ss.parentEdge[av]))
	}
	var w graph.Weight
	for _, idx := range vec.Ones() {
		w += g.Edge(int32(idx)).W
	}
	return w, vec, true
}

const inf = graph.Weight(1.7976931348623157e308)
