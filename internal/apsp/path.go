package apsp

import (
	"repro/internal/ear"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sssp"
)

// This file adds shortest *path* reconstruction on top of the
// distance-only tables. The paper's pipeline stores S^r (reduced pairs)
// and the articulation table A; a path is recovered without any extra
// per-pair storage. Inside a block it is a greedy next-hop walk over S^r
// with each reduced edge expanded back into its degree-2 chain. Across
// blocks nothing is searched: the chain of cut vertices between two blocks
// is unique in the block-cut forest, so it is read off Forest.path — the
// same navigation the distance kernels use — and each hop is an in-block
// walk.
//
// The greedy descent relies on the Bellman equality d(cur, t) =
// w(cur, v) + d(v, t) holding for some neighbour v. The table entries are
// float sums computed by independent per-source runs, so on
// non-integral weights the two sides can disagree by a few ULPs — or, in a
// Compact32 table, by one float32 rounding each; ties and zero-weight
// plateaus can additionally stall the descent. The walk therefore (a)
// accepts next hops within a relative tolerance fitted to the table's
// precision, (b) re-reads the remaining distance from the table instead of
// maintaining it by subtraction, (c) bounds the number of steps, and (d)
// falls back to an exact Dijkstra run with parent pointers when the greedy
// walk still fails. Reconstruction never panics; all failures surface as
// *QueryError.

// Relative acceptance tolerances of a greedy step: generous enough to
// absorb the drift between two table entries, far below any real weight
// difference. float64 entries differ by ULPs of differently associated
// sums; a float32 entry carries one rounding of 2⁻²⁴ ≈ 6e-8, so the two
// sides of the Bellman equality can be 1.2e-7 apart.
const (
	pathTol64 = 1e-9
	pathTol32 = 2.5e-7
)

// pathFallbacks counts greedy walks that gave up and re-ran Dijkstra
// (keptPathExact) — orders of magnitude slower, so worth seeing without a
// profile.
var pathFallbacks = obs.Default.Counter("apsp.path.fallbacks")

// pathTol returns the acceptance tolerance for a greedy step at remaining
// distance r.
func (a *EarAPSP) pathTol(r graph.Weight) graph.Weight {
	if r < 0 {
		r = -r
	}
	tol := pathTol64
	if a.sr32 != nil {
		tol = pathTol32
	}
	return tol * (1 + r)
}

// Path returns the vertices of a shortest x→y walk in the original graph,
// including both endpoints, or nil if y is unreachable from x or either
// vertex is out of range. Use PathChecked to distinguish those cases.
func (a *EarAPSP) Path(x, y int32) []int32 {
	w, err := a.PathChecked(x, y)
	if err != nil {
		return nil
	}
	return w
}

// PathChecked is Path with validation: it returns ErrVertexRange (wrapped
// in *QueryError) for out-of-range vertices, (nil, nil) when y is
// unreachable from x, and otherwise the walk. It is safe for concurrent
// callers.
func (a *EarAPSP) PathChecked(x, y int32) ([]int32, error) {
	if err := checkPair("Path", x, y, a.G.NumVertices()); err != nil {
		return nil, err
	}
	if x != y && a.Query(x, y) >= Inf {
		return nil, nil
	}
	w, err := a.keptOrAnyPath(x, y)
	if err != nil {
		return nil, &QueryError{Op: "Path", U: x, V: y, N: a.G.NumVertices(), Err: ErrReconstruction}
	}
	return w, nil
}

// keptOrAnyPath is the case analysis behind PathChecked and the oracle's
// in-block hops: either endpoint may be kept or removed by the reduction.
// The pair is in range; an unreachable one is ErrReconstruction.
func (a *EarAPSP) keptOrAnyPath(x, y int32) ([]int32, error) {
	if x == y {
		return []int32{x}, nil
	}
	if a.Query(x, y) >= Inf {
		return nil, ErrReconstruction
	}
	red := a.Red
	kx, ky := red.OrigToKept[x], red.OrigToKept[y]
	switch {
	case kx >= 0 && ky >= 0:
		return a.keptPath(kx, ky)
	case kx >= 0:
		// walk from the kept side and reverse
		w, err := a.removedToKeptPath(y, kx)
		return reverseWalk(w), err
	case ky >= 0:
		return a.removedToKeptPath(x, ky)
	}
	return a.removedPairPath(x, y)
}

// keptPath reconstructs the walk between two kept vertices: a greedy
// next-hop descent on the reduced graph, with every reduced edge expanded
// to its chain. On greedy failure it falls back to keptPathExact.
func (a *EarAPSP) keptPath(kx, ky int32) ([]int32, error) {
	out := []int32{a.Red.KeptToOrig[kx]}
	cur := kx
	r := a.Red.R
	adjNode, adjEdge := r.AdjNode(), r.AdjEdge()
	// A greedy walk that makes progress visits each reduced vertex at most
	// once; anything longer is a plateau oscillation.
	for steps := 0; cur != ky; steps++ {
		if steps > a.nr {
			return a.keptPathExact(kx, ky)
		}
		remaining := a.srAt(cur, ky)
		lo, hi := r.AdjacencyRange(cur)
		best := int32(-1)
		bestEdge := int32(-1)
		bestVal := Inf
		bestDist := Inf
		tol := a.pathTol(remaining)
		for i := lo; i < hi; i++ {
			v, eid := adjNode[i], adjEdge[i]
			dv := a.srAt(v, ky)
			val := r.Edge(eid).W + dv
			if val > remaining+tol {
				continue // not on a shortest path
			}
			// Prefer the hop that lowers the remaining distance the most so
			// zero-weight ties cannot stall the walk; break residual ties by
			// the cheaper step.
			if dv < bestDist || (dv == bestDist && val < bestVal) {
				bestDist = dv
				bestVal = val
				best = v
				bestEdge = eid
			}
		}
		if best < 0 {
			return a.keptPathExact(kx, ky)
		}
		appendChainWalk(&out, a.Red, bestEdge, a.Red.KeptToOrig[cur])
		cur = best
	}
	return out, nil
}

// keptPathExact recomputes the kx→ky walk with a fresh Dijkstra run on the
// reduced graph — the exact fallback when table-driven greedy descent is
// defeated by float drift or zero-weight plateaus. It allocates per call
// and is only reached on degenerate inputs.
func (a *EarAPSP) keptPathExact(kx, ky int32) ([]int32, error) {
	pathFallbacks.Inc()
	res := sssp.Dijkstra(a.Red.R, kx, nil)
	if res.Dist[ky] >= Inf {
		return nil, ErrReconstruction
	}
	var redEdges []int32
	for v := ky; v != kx; v = res.Parent[v] {
		redEdges = append(redEdges, res.ParentEdge[v])
	}
	out := []int32{a.Red.KeptToOrig[kx]}
	cur := kx
	for i := len(redEdges) - 1; i >= 0; i-- {
		eid := redEdges[i]
		appendChainWalk(&out, a.Red, eid, a.Red.KeptToOrig[cur])
		e := a.Red.R.Edge(eid)
		if e.U == cur {
			cur = e.V
		} else {
			cur = e.U
		}
	}
	return out, nil
}

// appendChainWalk expands reduced edge eid starting from original vertex
// `from` (one of the chain's endpoints) and appends the walk, skipping the
// duplicated first vertex.
func appendChainWalk(out *[]int32, red *ear.Reduced, eid int32, from int32) {
	c := &red.Chains[red.EdgeChain[eid]]
	var walk []int32
	if c.A == from {
		walk = c.WalkFromA()
	} else {
		walk = c.WalkFromB()
	}
	*out = append(*out, walk[1:]...)
}

// removedToKeptPath builds the walk from removed vertex x to kept vertex
// (reduced ID kv).
func (a *EarAPSP) removedToKeptPath(x int32, kv int32) ([]int32, error) {
	red := a.Red
	ax, bx, dax, dbx := red.Anchors(x)
	ci := red.ChainOf[x]
	c := &red.Chains[ci]
	pos := red.PosOf[x]
	viaA := addInf(dax, a.srAt(red.OrigToKept[ax], kv), 0)
	viaB := addInf(dbx, a.srAt(red.OrigToKept[bx], kv), 0)
	var out []int32
	if viaA <= viaB {
		out = append([]int32{}, c.SegmentToA(pos)...)
		rest, err := a.keptPath(red.OrigToKept[ax], kv)
		if err != nil {
			return nil, err
		}
		out = append(out, rest[1:]...)
	} else {
		out = append([]int32{}, c.SegmentToB(pos)...)
		rest, err := a.keptPath(red.OrigToKept[bx], kv)
		if err != nil {
			return nil, err
		}
		out = append(out, rest[1:]...)
	}
	return out, nil
}

// removedPairPath handles two removed vertices: the four anchor routes and
// the direct along-chain walk when they share a chain.
func (a *EarAPSP) removedPairPath(x, y int32) ([]int32, error) {
	red := a.Red
	ax, bx, dax, dbx := red.Anchors(x)
	ay, by, day, dby := red.Anchors(y)
	kax, kbx := red.OrigToKept[ax], red.OrigToKept[bx]
	kay, kby := red.OrigToKept[ay], red.OrigToKept[by]
	cx := &red.Chains[red.ChainOf[x]]
	cy := &red.Chains[red.ChainOf[y]]
	px, py := red.PosOf[x], red.PosOf[y]

	type route struct {
		cost     graph.Weight
		xToA     bool // leave x toward chain endpoint A
		yFromA   bool // enter y from chain endpoint A
		anchorX  int32
		anchorY  int32
		sameWalk bool
	}
	best := route{cost: Inf}
	consider := func(r route) {
		if r.cost < best.cost {
			best = r
		}
	}
	consider(route{cost: addInf(dax, a.srAt(kax, kay), day), xToA: true, yFromA: true, anchorX: kax, anchorY: kay})
	consider(route{cost: addInf(dax, a.srAt(kax, kby), dby), xToA: true, yFromA: false, anchorX: kax, anchorY: kby})
	consider(route{cost: addInf(dbx, a.srAt(kbx, kay), day), xToA: false, yFromA: true, anchorX: kbx, anchorY: kay})
	consider(route{cost: addInf(dbx, a.srAt(kbx, kby), dby), xToA: false, yFromA: false, anchorX: kbx, anchorY: kby})
	if direct, _, ok := red.SameChain(x, y); ok {
		consider(route{cost: direct, sameWalk: true})
	}
	if best.cost >= Inf {
		return nil, nil
	}
	if best.sameWalk {
		return cx.SegmentBetween(px, py), nil
	}
	var out []int32
	if best.xToA {
		out = append(out, cx.SegmentToA(px)...)
	} else {
		out = append(out, cx.SegmentToB(px)...)
	}
	mid, err := a.keptPath(best.anchorX, best.anchorY)
	if err != nil {
		return nil, err
	}
	out = append(out, mid[1:]...)
	// enter y's chain from the chosen endpoint and walk to y
	var entry []int32
	if best.yFromA {
		entry = reverseWalk(cy.SegmentToA(py)) // A ... y
	} else {
		entry = reverseWalk(cy.SegmentToB(py)) // B ... y
	}
	out = append(out, entry[1:]...)
	return out, nil
}

func reverseWalk(w []int32) []int32 {
	out := make([]int32, len(w))
	for i, v := range w {
		out[len(w)-1-i] = v
	}
	return out
}

// Path returns a shortest u→v walk in the full graph, stitched across
// biconnected components through the gateway articulation points, or nil
// if v is unreachable or either vertex is out of range. New code should
// prefer PathChecked, which distinguishes those cases with typed errors.
func (o *Oracle) Path(u, v int32) []int32 {
	w, err := o.PathChecked(u, v)
	if err != nil {
		return nil
	}
	return w
}

// PathChecked is Path with validation: it returns ErrVertexRange (wrapped
// in *QueryError) for out-of-range vertices, (nil, nil) when v is
// unreachable from u, and otherwise the walk. It is safe for concurrent
// callers.
func (o *Oracle) PathChecked(u, v int32) ([]int32, error) {
	if err := checkPair("Path", u, v, o.G.NumVertices()); err != nil {
		return nil, err
	}
	if u == v {
		return []int32{u}, nil
	}
	if o.Query(u, v) >= Inf {
		return nil, nil
	}
	w, err := o.path(u, v)
	if err != nil {
		return nil, &QueryError{Op: "Path", U: u, V: v, N: o.G.NumVertices(), Err: ErrReconstruction}
	}
	return w, nil
}

// forestNode returns v's node in the block-cut forest: its cut node for an
// articulation point, else its home block.
func (o *Oracle) forestNode(v int32) int32 {
	if ci := o.BCT.CutIndex[v]; ci >= 0 {
		return int32(len(o.Blocks)) + ci
	}
	return o.BCT.BlockOf[v]
}

// path walks the forest path between the nodes of u and v (distinct and
// connected): every block node on it is one in-block hop, from the
// previous cut vertex — or u — to the next cut vertex — or v.
func (o *Oracle) path(u, v int32) ([]int32, error) {
	numB := int32(len(o.Blocks))
	nodes := o.Forest.path(o.forestNode(u), o.forestNode(v))
	out := []int32{u}
	for i, nd := range nodes {
		if nd >= numB {
			continue
		}
		to := v
		if i+1 < len(nodes) {
			to = o.BCT.CutVertices[nodes[i+1]-numB]
		}
		seg, err := o.blockPath(nd, out[len(out)-1], to)
		if err != nil {
			return nil, err
		}
		out = append(out, seg[1:]...)
	}
	return out, nil
}

// blockPath answers an in-block path in parent vertex IDs.
func (o *Oracle) blockPath(bi int32, u, v int32) ([]int32, error) {
	blk := o.Blocks[bi]
	lu, lv := blk.local(u), blk.local(v)
	if lu < 0 || lv < 0 {
		return nil, ErrReconstruction
	}
	local, err := blk.Ear.keptOrAnyPath(lu, lv)
	if err != nil {
		return nil, err
	}
	out := make([]int32, len(local))
	for i, x := range local {
		out[i] = blk.Sub.ToParentVertex[x]
	}
	return out, nil
}
