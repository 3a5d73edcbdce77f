package apsp

import (
	"cmp"
	"context"
	"slices"
	"sync/atomic"

	"repro/internal/bcc"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/par"
)

// BlockAPSP is the per-biconnected-component state of the general
// algorithm: the component subgraph and its ear-reduced APSP. Parent→local
// vertex resolution goes through the oracle's shared flat locIndex
// (layout.go) instead of a per-block hash map.
type BlockAPSP struct {
	Sub *graph.Subgraph
	Ear *EarAPSP

	bi  int32     // this block's ID in the oracle's Blocks slice
	loc *locIndex // shared flat parent→local index
}

// local resolves a parent vertex ID to this block's local ID (-1 outside).
func (b *BlockAPSP) local(v int32) int32 { return b.loc.local(b.bi, v) }

// row writes the in-block distance row d_b(src, v) for every vertex v of
// the block, in ToParentVertex order, into out (len = the block's vertex
// count). src is a parent vertex ID; one outside the block yields an
// all-Inf row, mirroring QueryParent. It is the single inner loop behind
// both the monolith's rows and a shard daemon's BlockRow.
func (b *BlockAPSP) row(src int32, out []graph.Weight) {
	lu := b.local(src)
	if lu < 0 {
		for i := range out {
			out[i] = Inf
		}
		return
	}
	b.Ear.Row(lu, out)
}

// QueryParent answers an in-block distance query in parent vertex IDs.
func (b *BlockAPSP) QueryParent(u, v int32) graph.Weight {
	lu, lv := b.local(u), b.local(v)
	if lu < 0 || lv < 0 {
		return Inf
	}
	return b.Ear.Query(lu, lv)
}

// Oracle is the paper's general-graph APSP structure (Section 2.2): one
// ear-reduced APSP per biconnected component, an a×a distance table A over
// the articulation points, and one block-cut forest whose navigation finds,
// for any cross-component pair, the two gateway articulation points of the
// unique tree path between their blocks (distances) and every cut vertex
// in between (paths).
//
// Storage is O(a² + Σ nr_i²), the paper's memory bound, rather than O(n²).
type Oracle struct {
	G      *graph.Graph
	Dec    *bcc.Decomposition
	BCT    *bcc.BlockCutTree
	Blocks []*BlockAPSP

	// A is the articulation-point table, a×a row-major over BCT.CutVertices
	// indices.
	A    []graph.Weight
	numA int

	// loc is the flat parent→local vertex index shared by every block.
	loc *locIndex

	// Forest is the rooted block-cut forest Query navigates for gateway
	// articulation points and Path for the cut chain between them.
	Forest

	// Relaxations is the work of construction, all of it in the blocks'
	// processing phases (EarAPSP.Relaxations).
	Relaxations int64

	// BuildPhases times what made this oracle: the construction phases
	// (bcc/blocks/forest/aptable) of a build, "snapshot.load" of a load,
	// "delta.apply" of a delta. The daemon records them into its registry;
	// this package records nowhere else.
	BuildPhases *obs.Phases
}

// NewOracle builds the oracle sequentially.
func NewOracle(g *graph.Graph) *Oracle { return NewOracleParallel(g, 1) }

// NewOracleParallel builds the oracle on real goroutine workers: blocks
// are the paper's per-component work-units, claimed largest first, each
// block's per-source searches fan out again, and so do the AP table's
// rows.
func NewOracleParallel(g *graph.Graph, workers int) *Oracle {
	o, _ := NewOracleParallelCtx(context.Background(), g, workers)
	return o
}

// NewOracleParallelCtx is NewOracleParallel with cooperative cancellation:
// the build checks ctx before claiming each biconnected component and
// between the per-source Dijkstra units inside each component, so
// cancelling a request or hitting a deadline abandons a long build
// promptly. On cancellation it returns a nil oracle and the context
// error. With a background context it never fails. workers < 1 resolves
// to 1 (sequential).
func NewOracleParallelCtx(ctx context.Context, g *graph.Graph, workers int) (*Oracle, error) {
	return newOracle(ctx, g, workers, NewEarAPSPParallelCtx)
}

// newOracle is a from-scratch build: the BCC partition, assemble with mk
// solving every block, then the AP table. It is the only caller that
// times phases — a loaded or delta-built oracle ran none of them.
func newOracle(ctx context.Context, g *graph.Graph, workers int, mk func(context.Context, *graph.Graph, int) (*EarAPSP, error)) (*Oracle, error) {
	phases := &obs.Phases{}
	stop := phases.Start("bcc")
	dec := bcc.Compute(g)
	bct := bcc.BuildBlockCutTree(g, dec)
	stop()
	o, err := assemble(ctx, g, dec, bct, phases, workers, func(_ int, sub *graph.Subgraph) (*EarAPSP, error) {
		return mk(ctx, sub.G, workers)
	})
	if err != nil {
		return nil, err
	}
	o.BuildPhases = phases
	stop = phases.Start("aptable")
	o.buildAPTable(workers)
	stop()
	return o, nil
}

// assemble is the one maker of an oracle's derived structure, the fixed
// order of PAPER.md §2.2: the partition's subgraphs, one EarAPSP per
// block, the shared vertex index, the rooted block-cut forest. Every way
// an oracle comes to exist — built, simulated, structurally updated,
// loaded, carved for a shard — is this call plus where the AP table A
// comes from; only what block does differs: it builds, reuses or decodes
// block bi's tables, and a nil EarAPSP means "not resident here". The
// result's Relaxations is the sum over resident blocks. ph, which may be
// nil, times the "blocks" and "forest" phases for the one caller that
// builds from scratch.
//
// With workers > 1 the blocks are par tasks, largest (most edges) first,
// so block must be safe to call concurrently. With one worker they run in
// block order, which is what a decode reading its stream needs. No block
// is claimed once ctx is done or a block has failed; the first failure
// is returned.
func assemble(ctx context.Context, g *graph.Graph, dec *bcc.Decomposition, bct *bcc.BlockCutTree, ph *obs.Phases, workers int,
	block func(bi int, sub *graph.Subgraph) (*EarAPSP, error)) (*Oracle, error) {
	o := &Oracle{G: g, Dec: dec, BCT: bct, numA: len(bct.CutVertices), BuildPhases: &obs.Phases{}}
	stop := ph.Start("blocks")
	subs := dec.Subgraphs(g)
	o.Blocks = make([]*BlockAPSP, len(subs))
	order := make([]int, len(subs))
	for i := range order {
		order[i] = i
	}
	if workers > 1 {
		slices.SortStableFunc(order, func(x, y int) int { return cmp.Compare(len(dec.Components[y]), len(dec.Components[x])) })
	}
	var failed atomic.Pointer[error]
	err := par.ParallelForCtx(ctx, workers, len(subs), func(_, i int) {
		if failed.Load() != nil {
			return
		}
		bi := order[i]
		ea, err := block(bi, subs[bi])
		if err != nil {
			first := err // escapes only on this path, not once per block
			failed.CompareAndSwap(nil, &first)
			return
		}
		o.Blocks[bi] = &BlockAPSP{Sub: subs[bi], Ear: ea}
	})
	if p := failed.Load(); p != nil {
		err = *p
	}
	if err != nil {
		return nil, err
	}
	for _, b := range o.Blocks {
		if b.Ear != nil {
			o.Relaxations += b.Ear.Relaxations
		}
	}
	o.buildLocIndex()
	stop()
	stop = ph.Start("forest")
	o.Forest = buildForest(bct.BlockCuts, bct.CutBlocks)
	stop()
	return o, nil
}

// buildAPTable computes the a×a articulation point distance table
// (Section 2.2, Stage 2) by one forest walk per articulation point. In a
// tree the route between two cut vertices is forced, so there is nothing
// to search: for every block b in BFS order from s and every cut c on it
// other than the one b was entered through,
//
//	A[s,c] = A[s,gate(b)] + d_b(gate(b), c)
//
// with gate(b) = s on the blocks s itself lies on. The in-block entry is
// read with the cut listed first in BlockCuts[b] as its source — one fixed
// orientation per pair, so A[s,·] and A[t,·] add the same d_b for the
// same hop. Cuts in another component stay Inf. No shortest-path search
// runs, so the table adds nothing to Relaxations. Rows are independent
// par tasks, each worker walking with its own gate and queue.
func (o *Oracle) buildAPTable(workers int) {
	a, nb := o.numA, len(o.Blocks)
	o.A = make([]graph.Weight, a*a)
	workers = max(1, min(workers, a))
	gates, orders := make([]int32, workers*nb), make([][]int32, workers)
	par.ParallelFor(workers, a, func(w, s int) {
		row, gate := o.A[s*a:(s+1)*a], gates[w*nb:(w+1)*nb]
		for i := range row {
			row[i] = Inf
		}
		row[s] = 0
		orders[w] = walkForest(o.BCT.BlockCuts, o.BCT.CutBlocks, int32(s), -1, gate, orders[w][:0])
		for _, b := range orders[w] {
			g := gate[b]
			if g == gateSelf {
				g = int32(s)
			}
			gv, gateFirst := o.BCT.CutVertices[g], false
			for _, c := range o.BCT.BlockCuts[b] {
				if c == g {
					gateFirst = true // every later cut is listed after the gate
					continue
				}
				u, v := o.BCT.CutVertices[c], gv
				if gateFirst {
					u, v = v, u
				}
				row[c] = addInf(row[g], o.Blocks[b].QueryParent(u, v), 0)
			}
		}
	})
}

// Query returns d_G(u, v) for arbitrary vertices: the pair kernel's case
// analysis (pair.go) fed from the resident per-block tables. Out-of-range
// vertices report Inf silently; new code should prefer QueryChecked, which
// surfaces them as *QueryError instead.
//
// An oracle is immutable once its constructor returns: queries only read
// the precomputed tables (S^r, the articulation table A, the block-cut
// forest) and any scratch state is allocated per call. Every Query*/Path*
// method is therefore safe for any number of concurrent goroutines, which
// a long-lived serving process (cmd/oracled) relies on; a race-detector
// test in internal/check hammers this property.
func (o *Oracle) Query(u, v int32) graph.Weight {
	p, err := o.PlanPair(u, v)
	if err != nil {
		return Inf
	}
	var d [2]graph.Weight
	for i, e := range p.Want[:p.N] {
		d[i] = o.Blocks[e.Block].QueryParent(e.Src, e.Dst)
	}
	return p.Distance(d[0], d[1])
}

// QueryChecked returns d_G(u, v), validating the pair first. The error is
// a *QueryError wrapping ErrVertexRange when either vertex is outside
// [0, n). Unreachable pairs are not an error: they report Inf.
func (o *Oracle) QueryChecked(u, v int32) (graph.Weight, error) {
	if err := checkPair("Query", u, v, o.G.NumVertices()); err != nil {
		return Inf, err
	}
	return o.Query(u, v), nil
}

// NumArticulation returns a, the number of articulation points.
func (o *Oracle) NumArticulation() int { return o.numA }

// MemoryPlan reports the paper's Table 1 memory model: entries (and bytes
// at 4 bytes per stored distance, the paper's float precision) for this
// oracle (a² + Σ n_i²) versus the dense n² table.
type MemoryPlan struct {
	OursEntries int64
	MaxEntries  int64
}

// Bytes returns the two sides in bytes (4-byte entries, as the paper's MB
// figures imply).
func (m MemoryPlan) Bytes() (ours, max int64) { return m.OursEntries * 4, m.MaxEntries * 4 }

// Memory computes the plan for this oracle.
func (o *Oracle) Memory() MemoryPlan {
	var ours int64
	ours += int64(o.numA) * int64(o.numA)
	for _, blk := range o.Blocks {
		ni := int64(blk.Sub.G.NumVertices())
		ours += ni * ni
	}
	n := int64(o.G.NumVertices())
	return MemoryPlan{OursEntries: ours, MaxEntries: n * n}
}

// ReducedMemory reports the tighter accounting this implementation actually
// uses (a² + Σ nr_i² over reduced block sizes), shown alongside the paper's
// model in the Table 1 harness.
func (o *Oracle) ReducedMemory() int64 {
	var ours int64
	ours += int64(o.numA) * int64(o.numA)
	for _, blk := range o.Blocks {
		nr := int64(blk.Ear.Red.R.NumVertices())
		ours += nr * nr
	}
	return ours
}

// NodesRemoved returns the total vertices removed by ear reduction across
// blocks — Table 1's "Nodes Removed" column. A vertex shared by several
// blocks (an articulation point) is never removed; interior chain vertices
// belong to exactly one block, so the per-block sum counts each removed
// vertex once.
func (o *Oracle) NodesRemoved() int {
	total := 0
	for _, blk := range o.Blocks {
		total += blk.Ear.Red.NumRemoved()
	}
	return total
}
