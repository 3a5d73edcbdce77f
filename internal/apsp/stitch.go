package apsp

import (
	"sync"

	"repro/internal/graph"
)

// The stitch kernel: the one implementation of "combine per-block rows
// with the articulation table A along the block-cut forest" — Section 2.2
// run at row granularity, the assembly half of a disassembly/assembly
// APSP. Both row sources call it: the monolith oracle hands it rows read
// from its own tables, a sharded frontend rows fetched from shard
// daemons, so the two answer identically because they are the same code
// over the same per-block bytes, not two copies kept in step.
//
// n calls to Query pay the forest navigation (an O(log n) LCA plus gateway
// lookup) once per pair; the kernel walks the forest from the source once
// and runs the case analysis in aggregate:
//
//   - distances from u to every articulation point come first (for an AP
//     source, one row of A; for a regular source, a min over its block's
//     cut vertices of an in-block distance plus a row of A);
//   - every other block b is then extended in one pass: each vertex v of b
//     costs one in-block distance d_b(gate, v) added to the gateway's AP
//     distance.
//
// Total: O(n + a·|cuts(b_u)| + B) table operations per row, each in-block
// distance O(1) against the reduced tables S^r — a row never re-runs
// Dijkstra (the paper's "compute once, extend per query" discipline).

// The kernels read only an oracle's block-cut topology: BCT's articulation
// points and adjacency, each block's vertex list (its subgraph's
// ToParentVertex, the order its rows are emitted in), the rooted Forest
// and the a×a table A. A plan manifest's table-less oracle holds all of
// them, so a frontend runs the same methods as the monolith; only the
// in-block rows come from elsewhere.

// ap reads entry (i, j) of A.
func (o *Oracle) ap(i, j int32) graph.Weight { return o.A[int(i)*o.numA+int(j)] }

// BlockWant names one in-block row the kernel needs: d_Block(Src, ·), in
// the order of Block's vertex list. Src is a parent-graph vertex lying on
// Block.
type BlockWant struct {
	Block, Src int32
}

// BlockRowsFunc supplies in-block rows: it fills rows[i] (already sized
// to want[i].Block's vertex count) for every i, or returns an error and
// the whole row fails. want is ascending by block. Both slices are pooled
// scratch, valid only until the call returns.
type BlockRowsFunc func(want []BlockWant, rows [][]graph.Weight) error

// Gate markers of the forest walk; a non-negative gate is an AP index.
const (
	gateSelf = -1 // the source lies on the block
	gateNone = -2 // not reached: another component
)

// stitchScratch is the per-call working set, pooled so a steady-state row
// allocates nothing.
type stitchScratch struct {
	gate, queue []int32
	want        []BlockWant
	rows        [][]graph.Weight
	flat        []graph.Weight // backing store of rows
	dcut, dAP   []graph.Weight
}

var stitchPool = sync.Pool{New: func() any { return new(stitchScratch) }}

// grow returns s resized to n, reallocating only when capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// walkForest is the package's one walk of the block-cut forest from a
// source: BFS over the adjacency blockCuts (block → AP indices on it) and
// cutBlocks (its reverse) from the cut vertex iu, or, when iu < 0, from
// the home block bu. It fills gate (len = number of blocks): gate[b] is
// the first cut vertex on the forest path from block b back to the source,
// gateSelf when the source lies on b, gateNone when b is in another
// component. The reached blocks are appended to queue in BFS order — a
// block comes after the block its gate was found on — and returned. Row
// extends a source's distances outward along it; buildAPTable fills a row
// of A the same way.
func walkForest(blockCuts, cutBlocks [][]int32, iu, bu int32, gate, queue []int32) []int32 {
	for b := range gate {
		gate[b] = gateNone
	}
	if iu >= 0 {
		for _, b := range cutBlocks[iu] {
			if gate[b] == gateNone {
				gate[b] = gateSelf
				queue = append(queue, b)
			}
		}
	} else {
		gate[bu] = gateSelf
		queue = append(queue, bu)
	}
	for qi := 0; qi < len(queue); qi++ {
		b := queue[qi]
		for _, ci := range blockCuts[b] {
			if ci == gate[b] || ci == iu {
				continue // the cut this block was entered through
			}
			for _, nb := range cutBlocks[ci] {
				if gate[nb] == gateNone {
					gate[nb] = ci
					queue = append(queue, nb)
				}
			}
		}
	}
	return queue
}

// RowCost estimates the table operations Row(u) will perform: a cheap
// upper bound, n for the extension pass plus the AP sweep. No scheduler
// reads it any more (qe.Batch spreads rows with ParallelForCtx); it, and
// shard.RemoteSource's forwarder, stay only because bench/layers.go's
// rowSource interface names the method — delete both with ROADMAP item
// 1(b).
func (o *Oracle) RowCost(u int32) int64 {
	bct := o.BCT
	cost := int64(len(bct.CutIndex))
	if u >= 0 && int(u) < len(bct.BlockOf) {
		if b := bct.BlockOf[u]; b >= 0 {
			cost += int64(o.numA) * int64(len(bct.BlockCuts[b])+1)
		}
	}
	return cost
}

// StitchRow writes d_G(u, v) for every vertex v into out (len ≥ n),
// reading the in-block rows it needs from fetch, and returns the number
// of table operations performed. Row passes the oracle's own tables; a
// sharded frontend passes rows fetched from the shards. An out-of-range
// u comes back as a *QueryError wrapping ErrVertexRange with out
// untouched; a fetch error is returned as is and leaves out unspecified.
//
// gate[b] is the first cut vertex on the forest path from block b back to
// the source, so block b needs exactly one in-block row — from the source
// itself if it lies on b, else from b's gate — and fetch supplies those.
func (o *Oracle) StitchRow(u int32, out []graph.Weight, fetch BlockRowsFunc) (int64, error) {
	bct := o.BCT
	n := len(bct.CutIndex)
	if u < 0 || int(u) >= n {
		return 0, &QueryError{Op: "Row", U: u, V: u, N: n, Err: ErrVertexRange}
	}
	out = out[:n]
	for i := range out {
		out[i] = Inf
	}
	out[u] = 0
	ops := int64(n)
	iu, bu := bct.CutIndex[u], bct.BlockOf[u]
	if iu < 0 && bu < 0 {
		return ops, nil // isolated vertex: everything else stays Inf
	}

	sc := stitchPool.Get().(*stitchScratch)
	defer stitchPool.Put(sc)

	sc.gate = grow(sc.gate, len(o.Blocks))
	gate := sc.gate
	sc.queue = walkForest(bct.BlockCuts, bct.CutBlocks, iu, bu, gate, sc.queue[:0])

	// One in-block row per reached block, ascending, so a provider's
	// request order is deterministic.
	want := sc.want[:0]
	home, total := -1, 0
	for b, g := range gate {
		if g == gateNone {
			continue
		}
		src := u
		if g >= 0 {
			src = bct.CutVertices[g]
		} else if iu < 0 {
			home = len(want)
		}
		want = append(want, BlockWant{Block: int32(b), Src: src})
		total += len(o.Blocks[b].Sub.ToParentVertex)
	}
	sc.want = want
	sc.flat = grow(sc.flat, total)
	sc.rows = grow(sc.rows, len(want))
	rows := sc.rows
	off := 0
	for i, w := range want {
		k := len(o.Blocks[w.Block].Sub.ToParentVertex)
		rows[i] = sc.flat[off : off+k : off+k]
		off += k
	}
	if err := fetch(want, rows); err != nil {
		return 0, err
	}

	// Distance from the source to every articulation point.
	a := o.numA
	sc.dAP = grow(sc.dAP, a)
	dAP := sc.dAP
	if iu >= 0 {
		for j := range dAP {
			dAP[j] = o.ap(iu, int32(j))
			out[bct.CutVertices[j]] = dAP[j]
		}
		ops += int64(a)
	} else {
		// In-block distances, including the home block's own cut vertices,
		// are exact: a shortest path between two vertices of one
		// biconnected component never leaves it.
		verts := o.Blocks[bu].Sub.ToParentVertex
		for k, pv := range verts {
			out[pv] = rows[home][k]
		}
		ops += int64(len(verts))
		cuts := bct.BlockCuts[bu]
		if len(cuts) == 0 {
			return ops, nil // the whole component is this one block
		}
		// Any path out of bu passes one of its cut vertices, so the min
		// over cuts of (in-block leg + A row) is exact — and for bu's own
		// cuts it degenerates to the in-block value. dcut is gathered
		// dense: this a × |cuts| loop dominates the row.
		sc.dcut = grow(sc.dcut, len(cuts))
		dcut := sc.dcut
		for i, ci := range cuts {
			dcut[i] = out[bct.CutVertices[ci]]
		}
		for j := range dAP {
			best := Inf
			for i, ci := range cuts {
				if s := addInf(dcut[i], o.ap(ci, int32(j)), 0); s < best {
					best = s
				}
			}
			dAP[j] = best
			if cv := bct.CutVertices[j]; best < out[cv] {
				out[cv] = best
			}
		}
		ops += int64(a) * int64(len(cuts))
	}

	// Interior (non-AP) vertices of every other reached block: the gate's
	// distance from the source plus one in-block entry each.
	for i, w := range want {
		if i == home {
			continue // filled above
		}
		g := gate[w.Block]
		verts, row := o.Blocks[w.Block].Sub.ToParentVertex, rows[i]
		ops += int64(len(verts))
		if g == gateSelf {
			// The AP source lies on this block: in-block distances are
			// exact (its APs came from A).
			for k, pv := range verts {
				if bct.CutIndex[pv] < 0 {
					out[pv] = row[k]
				}
			}
			continue
		}
		pre := dAP[g]
		for k, pv := range verts {
			if bct.CutIndex[pv] < 0 {
				out[pv] = addInf(pre, row[k], 0)
			}
		}
	}
	return ops, nil
}
