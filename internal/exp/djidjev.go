package exp

import (
	"repro/internal/apsp"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/sssp"
)

// Djidjev is the partition-based baseline of Djidjev et al. [12]
// (Section 2.4.3): partition the graph into k parts (METIS in the paper,
// our BFS-growth partitioner here), compute APSP within each part, build
// the boundary graph — boundary vertices, the original cross edges, and
// augmented within-part edges weighted by in-part distances — solve APSP on
// it, and answer global queries by composing the three tables. The method
// is exact on any graph but only efficient when the boundary is small,
// which is why the original paper (and ours) evaluates it on planar graphs.
type Djidjev struct {
	G    *graph.Graph
	Part []int32
	K    int

	parts      []*graph.Subgraph
	partTables [][]graph.Weight // np_i × np_i in-part distances
	localOf    []int32          // global vertex -> local ID in its part

	boundary     []int32 // global IDs of boundary vertices
	bIndex       []int32 // global -> boundary index, -1 otherwise
	bTable       []graph.Weight
	partBoundary [][]int32 // per part: its boundary vertices (global IDs)

	// Relaxations counts the Dijkstra work across all three stages.
	Relaxations int64
}

// NewDjidjev partitions g into k parts and precomputes the tables.
func NewDjidjev(g *graph.Graph, k, workers int) *Djidjev {
	n := g.NumVertices()
	if k < 1 {
		k = 1
	}
	d := &Djidjev{G: g, K: k, Part: partition.Partition(g, k, 4)}
	if workers < 1 {
		workers = 1
	}

	// Per-part subgraphs and in-part APSP.
	byPart := make([][]int32, k)
	for v := int32(0); v < int32(n); v++ {
		p := d.Part[v]
		byPart[p] = append(byPart[p], v)
	}
	d.parts = make([]*graph.Subgraph, k)
	d.partTables = make([][]graph.Weight, k)
	d.localOf = make([]int32, n)
	for p := 0; p < k; p++ {
		d.parts[p] = graph.InducedByVertices(g, byPart[p])
		for local, global := range d.parts[p].ToParentVertex {
			d.localOf[global] = int32(local)
		}
	}
	relax := make([]int64, workers)
	par.ParallelFor(workers, k, func(w, p int) {
		pg := d.parts[p].G
		np := pg.NumVertices()
		tbl := make([]graph.Weight, np*np)
		sc := sssp.NewScratch(np)
		for s := 0; s < np; s++ {
			relax[w] += sssp.DistancesOnly(pg, int32(s), tbl[s*np:(s+1)*np], sc)
		}
		d.partTables[p] = tbl
	})
	for _, r := range relax {
		d.Relaxations += r
	}

	// Boundary graph: cross edges plus per-part cliques weighted by in-part
	// distances.
	d.boundary = partition.Boundary(g, d.Part)
	d.bIndex = make([]int32, n)
	for i := range d.bIndex {
		d.bIndex[i] = -1
	}
	for i, v := range d.boundary {
		d.bIndex[v] = int32(i)
	}
	d.partBoundary = make([][]int32, k)
	for _, v := range d.boundary {
		p := d.Part[v]
		d.partBoundary[p] = append(d.partBoundary[p], v)
	}
	nb := len(d.boundary)
	bb := graph.NewBuilder(nb)
	for _, e := range g.Edges() {
		if d.Part[e.U] != d.Part[e.V] {
			bb.AddEdge(d.bIndex[e.U], d.bIndex[e.V], e.W)
		}
	}
	for p := 0; p < k; p++ {
		pb := d.partBoundary[p]
		for i := 0; i < len(pb); i++ {
			for j := i + 1; j < len(pb); j++ {
				w := d.partDist(p, pb[i], pb[j])
				if w < apsp.Inf {
					bb.AddEdge(d.bIndex[pb[i]], d.bIndex[pb[j]], w)
				}
			}
		}
	}
	bg := bb.Build()
	d.bTable = make([]graph.Weight, nb*nb)
	scb := sssp.NewScratch(nb)
	for s := 0; s < nb; s++ {
		d.Relaxations += sssp.DistancesOnly(bg, int32(s), d.bTable[s*nb:(s+1)*nb], scb)
	}
	return d
}

// partDist reads the in-part distance between two global vertices of part p.
func (d *Djidjev) partDist(p int, u, v int32) graph.Weight {
	np := d.parts[p].G.NumVertices()
	return d.partTables[p][int(d.localOf[u])*np+int(d.localOf[v])]
}

func (d *Djidjev) bAt(i, j int32) graph.Weight {
	return d.bTable[int(i)*len(d.boundary)+int(j)]
}

// Query returns d_G(u, v): the in-part distance when u and v share a part,
// minimised against every boundary-to-boundary route.
func (d *Djidjev) Query(u, v int32) graph.Weight {
	if u < 0 || int(u) >= d.G.NumVertices() || v < 0 || int(v) >= d.G.NumVertices() {
		return apsp.Inf
	}
	if u == v {
		return 0
	}
	pu, pv := int(d.Part[u]), int(d.Part[v])
	best := apsp.Inf
	if pu == pv {
		best = d.partDist(pu, u, v)
	}
	for _, bu := range d.partBoundary[pu] {
		du := d.partDist(pu, u, bu)
		if du >= best {
			continue
		}
		for _, bv := range d.partBoundary[pv] {
			cand := sumInf(du, d.bAt(d.bIndex[bu], d.bIndex[bv]), d.partDist(pv, bv, v))
			if cand < best {
				best = cand
			}
		}
	}
	return best
}

// Row fills out[v] = d(u, v) for all v, amortising the boundary scan: it
// first computes D(u, b) for every boundary vertex b, then each target
// costs only |B(part(v))| lookups. It returns the number of table
// operations performed.
func (d *Djidjev) Row(u int32, out []graph.Weight) int64 {
	n := d.G.NumVertices()
	pu := int(d.Part[u])
	nb := len(d.boundary)
	var ops int64
	toB := make([]graph.Weight, nb)
	for i := range toB {
		toB[i] = apsp.Inf
	}
	for _, bu := range d.partBoundary[pu] {
		du := d.partDist(pu, u, bu)
		bi := d.bIndex[bu]
		for b := 0; b < nb; b++ {
			ops++
			if cand := sumInf(du, d.bAt(bi, int32(b)), 0); cand < toB[b] {
				toB[b] = cand
			}
		}
	}
	for v := 0; v < n; v++ {
		pv := int(d.Part[v])
		best := apsp.Inf
		if pv == pu {
			best = d.partDist(pu, u, int32(v))
		}
		for _, bv := range d.partBoundary[pv] {
			ops++
			if cand := sumInf(toB[d.bIndex[bv]], d.partDist(pv, bv, int32(v)), 0); cand < best {
				best = cand
			}
		}
		out[v] = best
	}
	out[u] = 0
	return ops
}

// sumInf is a + b + c, absorbing: any Inf operand makes the sum Inf.
func sumInf(a, b, c graph.Weight) graph.Weight {
	if a >= apsp.Inf || b >= apsp.Inf || c >= apsp.Inf {
		return apsp.Inf
	}
	return a + b + c
}
