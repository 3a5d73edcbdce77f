package apsp

import (
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
// non-integral weights the two sides can disagree by a few ULPs; ties and
// zero-weight plateaus can additionally stall the descent. The walk
// therefore (a) accepts next hops within a relative tolerance, (b)
// re-reads the remaining distance from the table instead of maintaining
// it by subtraction, (c) bounds the number of steps, and (d) falls back
// to an exact Dijkstra run with parent pointers when the greedy walk
// still fails. Reconstruction never panics; all failures surface as
// *QueryError.

// pathTol64 is the relative acceptance tolerance of a greedy step:
// generous enough to absorb the drift between two table entries (ULPs of
// differently associated sums), far below any real weight difference.
const pathTol64 = 1e-9

// PathFallbacks counts greedy walks that gave up and re-ran Dijkstra
// (keptPathExact) — orders of magnitude slower, so worth seeing without a
// profile. No returned value owns a walk, so it is the one process-wide
// metric: the daemon attaches it to its registry as apsp.path.fallbacks.
var PathFallbacks obs.Counter

// pathTol returns the acceptance tolerance for a greedy step at remaining
// distance r.
func pathTol(r graph.Weight) graph.Weight {
	if r < 0 {
		r = -r
	}
	return pathTol64 * (1 + r)
}

// exit is one way from an in-block endpoint into G^r: kept vertex k,
// reached at along-chain distance d by walking to chain position end.
type exit struct {
	k   int32
	d   graph.Weight
	end int32
}

// exits returns v's exits and how many there are: a kept vertex is its own
// one exit; a removed one leaves its chain at A (position 0) or B (position
// L+1), at the Anchors distances.
func (a *EarAPSP) exits(v int32) ([2]exit, int) {
	red := a.Red
	if k := red.OrigToKept[v]; k >= 0 {
		return [2]exit{{k: k}}, 1
	}
	av, bv, da, db := red.Anchors(v)
	end := int32(len(red.Chains[red.ChainOf[v]].Interior)) + 1
	return [2]exit{{red.OrigToKept[av], da, 0}, {red.OrigToKept[bv], db, end}}, 2
}

// appendPath appends the in-block x→y walk after x, which out already ends
// with. It is the one in-block case analysis: the cheapest exit pair by
// Query's sums — or the direct walk when x and y share a chain and that is
// shorter — then x's chain segment to its exit, the kept walk between the
// exits, and y's segment from its exit. The pair is in range; an
// unreachable one is ErrReconstruction.
func (a *EarAPSP) appendPath(out []int32, x, y int32) ([]int32, error) {
	if x == y {
		return out, nil
	}
	red := a.Red
	ex, nx := a.exits(x)
	ey, ny := a.exits(y)
	best, bx, by := Inf, exit{}, exit{}
	for _, e := range ex[:nx] {
		for _, f := range ey[:ny] {
			if s := addInf(e.d, a.srAt(e.k, f.k), f.d); s < best {
				best, bx, by = s, e, f
			}
		}
	}
	if direct, ok := red.SameChain(x, y); ok && direct < best {
		return red.Chains[red.ChainOf[x]].AppendWalk(out, red.PosOf[x]+1, red.PosOf[y]+1), nil
	}
	if best >= Inf {
		return out, ErrReconstruction
	}
	if ci := red.ChainOf[x]; ci >= 0 {
		out = red.Chains[ci].AppendWalk(out, red.PosOf[x]+1, bx.end)
	}
	out, err := a.keptPath(out, bx.k, by.k)
	if ci := red.ChainOf[y]; ci >= 0 && err == nil {
		out = red.Chains[ci].AppendWalk(out, by.end, red.PosOf[y]+1)
	}
	return out, err
}

// keptPath appends the walk between two kept vertices after kx's original
// vertex, which out already ends with: a greedy next-hop descent on the
// reduced graph, with every reduced edge expanded to its chain. On greedy
// failure it falls back to keptPathExact.
func (a *EarAPSP) keptPath(out []int32, kx, ky int32) ([]int32, error) {
	start := len(out)
	cur := kx
	r := a.Red.R
	adjNode, adjEdge := r.AdjNode(), r.AdjEdge()
	// A greedy walk that makes progress visits each reduced vertex at most
	// once; anything longer is a plateau oscillation.
	for steps := 0; cur != ky; steps++ {
		if steps > a.nr {
			return a.keptPathExact(out[:start], kx, ky)
		}
		remaining := a.srAt(cur, ky)
		lo, hi := r.AdjacencyRange(cur)
		best := int32(-1)
		bestEdge := int32(-1)
		bestVal := Inf
		bestDist := Inf
		tol := pathTol(remaining)
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
			return a.keptPathExact(out[:start], kx, ky)
		}
		out = a.appendChain(out, bestEdge, cur)
		cur = best
	}
	return out, nil
}

// keptPathExact is keptPath by a fresh Dijkstra run on the reduced graph —
// the exact fallback when table-driven greedy descent is defeated by float
// drift or zero-weight plateaus. It allocates per call and is only reached
// on degenerate inputs.
func (a *EarAPSP) keptPathExact(out []int32, kx, ky int32) ([]int32, error) {
	PathFallbacks.Inc()
	res := sssp.Dijkstra(a.Red.R, kx, nil)
	if res.Dist[ky] >= Inf {
		return out, ErrReconstruction
	}
	var redEdges []int32
	for v := ky; v != kx; v = res.Parent[v] {
		redEdges = append(redEdges, res.ParentEdge[v])
	}
	cur := kx
	for i := len(redEdges) - 1; i >= 0; i-- {
		eid := redEdges[i]
		out = a.appendChain(out, eid, cur)
		if e := a.Red.R.Edge(eid); e.U == cur {
			cur = e.V
		} else {
			cur = e.U
		}
	}
	return out, nil
}

// appendChain appends reduced edge eid's chain walk after the end at kept
// vertex k.
func (a *EarAPSP) appendChain(out []int32, eid, k int32) []int32 {
	c := &a.Red.Chains[a.Red.EdgeChain[eid]]
	b := int32(len(c.Interior)) + 1
	if c.A == a.Red.KeptToOrig[k] {
		return c.AppendWalk(out, 0, b)
	}
	return c.AppendWalk(out, b, 0)
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
		var err error
		if out, err = o.blockPath(out, nd, out[len(out)-1], to); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// blockPath appends block bi's in-block u→v walk after u, in parent vertex
// IDs.
func (o *Oracle) blockPath(out []int32, bi int32, u, v int32) ([]int32, error) {
	lu, lv := o.loc.local(bi, u), o.loc.local(bi, v)
	if lu < 0 || lv < 0 {
		return out, ErrReconstruction
	}
	start := len(out)
	out, err := o.Blocks[bi].appendPath(out, lu, lv)
	verts := o.BCT.BlockVerts[bi]
	for i := start; i < len(out); i++ {
		out[i] = verts[out[i]]
	}
	return out, err
}
