// Package verify provides certification routines for the library's
// results: distance oracles, walks, and cycle bases. The checks are
// independent re-derivations (certificate verification, not re-execution),
// so the command-line tools expose them behind -verify flags and the test
// suites build on them.
package verify

import (
	"fmt"
	"math"

	"repro/internal/bitvec"
	"repro/internal/graph"
	"repro/internal/mcb"
	"repro/internal/sssp"
)

// DistanceQuerier is any all-pairs oracle, such as apsp.Oracle.
type DistanceQuerier interface {
	Query(u, v int32) graph.Weight
}

// OracleSample cross-checks an oracle against reference Bellman–Ford runs
// from `sources` randomly meaningful vertices (the first `sources` vertex
// IDs; pass n to check everything).
func OracleSample(g *graph.Graph, o DistanceQuerier, sources int) error {
	n := g.NumVertices()
	if sources > n {
		sources = n
	}
	for s := 0; s < sources; s++ {
		ref := sssp.BellmanFord(g, int32(s))
		for v := int32(0); v < int32(n); v++ {
			if got := o.Query(int32(s), v); got != ref[v] {
				return fmt.Errorf("verify: oracle d(%d,%d) = %v, reference %v", s, v, got, ref[v])
			}
		}
	}
	return nil
}

// Walk certifies that walk is a contiguous walk in g from its first to
// last vertex and that its weight (cheapest edge per hop) equals want, up
// to a relative float tolerance: the walk sums its edges hop by hop while
// oracle tables sum the same edges in Dijkstra relaxation order, so on
// non-integral weights the two totals legitimately differ by ULPs.
func Walk(g *graph.Graph, walk []int32, want graph.Weight) error {
	if len(walk) == 0 {
		return fmt.Errorf("verify: empty walk")
	}
	var total graph.Weight
	for i := 0; i+1 < len(walk); i++ {
		u, v := walk[i], walk[i+1]
		best := sssp.Inf
		g.Neighbors(u, func(nb, eid int32) bool {
			if nb == v && g.Edge(eid).W < best {
				best = g.Edge(eid).W
			}
			return true
		})
		if best >= sssp.Inf {
			return fmt.Errorf("verify: walk step %d: %d–%d is not an edge", i, u, v)
		}
		total += best
	}
	if total != want && math.Abs(total-want) > 1e-9*(1+math.Abs(total)+math.Abs(want)) {
		return fmt.Errorf("verify: walk weight %v, want %v", total, want)
	}
	return nil
}

// CycleBasis certifies an MCB result: correct cardinality (m − n + k),
// every element an even-degree edge set with consistent weight, and linear
// independence over GF(2). It does not certify minimality (that requires
// recomputation); combine with a second independent algorithm — e.g.
// mcb.HortonMCB — for a weight cross-check.
func CycleBasis(g *graph.Graph, res *mcb.Result) error {
	want := mcb.Dim(g)
	if res.Dim != want || len(res.Cycles) != want {
		return fmt.Errorf("verify: basis has %d cycles (dim field %d), want %d", len(res.Cycles), res.Dim, want)
	}
	m := g.NumEdges()
	vecs := make([]*bitvec.Vector, 0, len(res.Cycles))
	var total graph.Weight
	for ci, c := range res.Cycles {
		if len(c.Edges) == 0 {
			return fmt.Errorf("verify: cycle %d is empty", ci)
		}
		deg := make(map[int32]int)
		var w graph.Weight
		v := bitvec.New(m)
		for _, eid := range c.Edges {
			if eid < 0 || int(eid) >= m {
				return fmt.Errorf("verify: cycle %d references edge %d out of range", ci, eid)
			}
			if v.Get(int(eid)) {
				return fmt.Errorf("verify: cycle %d repeats edge %d", ci, eid)
			}
			v.Set(int(eid), true)
			e := g.Edge(eid)
			if e.U != e.V {
				deg[e.U]++
				deg[e.V]++
			}
			w += e.W
		}
		for vert, d := range deg {
			if d%2 != 0 {
				return fmt.Errorf("verify: cycle %d has odd degree at vertex %d", ci, vert)
			}
		}
		if w != c.Weight {
			return fmt.Errorf("verify: cycle %d weight %v, edges sum to %v", ci, c.Weight, w)
		}
		total += w
		vecs = append(vecs, v)
	}
	if total != res.TotalWeight {
		return fmt.Errorf("verify: total weight %v, cycles sum to %v", res.TotalWeight, total)
	}
	if rank := bitvec.Rank(vecs); rank != want {
		return fmt.Errorf("verify: basis rank %d, want %d", rank, want)
	}
	return nil
}
