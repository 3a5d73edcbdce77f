package apsp

import (
	"context"
	"math"
	"sync/atomic"

	"repro/internal/bcc"
	"repro/internal/graph"
	"repro/internal/obs"
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
	// indices; in compact mode it lives in a32 instead (float32, +Inf for
	// unreachable) and A is nil.
	A    []graph.Weight
	a32  []float32
	numA int

	// compact records that every distance table (A and each block's S^r)
	// is stored as float32 — half the cache footprint, with the tolerance
	// policy documented on Options.Compact32.
	compact bool

	// loc is the flat parent→local vertex index shared by every block.
	loc *locIndex

	// Forest is the rooted block-cut forest Query navigates for gateway
	// articulation points and Path for the cut chain between them; the
	// stitch view shares it.
	Forest

	// view caches StitchView(); see there.
	view atomic.Pointer[StitchView]

	// Relaxations is the work of construction, all of it in the blocks'
	// processing phases (EarAPSP.Relaxations).
	Relaxations int64

	// BuildPhases times the construction phases of this oracle
	// (bcc/blocks/forest/aptable); the same durations accumulate into
	// obs.Default under "apsp.build" for process-wide export.
	BuildPhases *obs.Phases
}

// Options configures oracle construction beyond the graph itself.
type Options struct {
	// Workers is the parallelism of the per-block processing phase; < 1
	// resolves to 1 (sequential).
	Workers int
	// Compact32 stores every distance table (the a×a AP table and each
	// block's S^r) as float32 instead of float64, halving the oracle's
	// dominant memory term a² + Σ nr_i². Distances are computed in float64
	// and rounded once on store, so each table entry carries at most one
	// float32 rounding (relative error ≤ 2⁻²⁴ ≈ 6e-8); a query combines at
	// most three table entries plus exact chain prefixes, so query results
	// stay within ~1e-6 relative error of the float64 oracle (the
	// differential sweep in internal/check enforces 1e-5). Unreachable
	// entries are stored as +Inf and read back as the exact Inf sentinel.
	Compact32 bool
}

// NewOracle builds the oracle sequentially.
func NewOracle(g *graph.Graph) *Oracle { return NewOracleParallel(g, 1) }

// NewOracleOpts builds the oracle under ctx with explicit options; it is
// the constructor behind the facade's APSPOptions.
func NewOracleOpts(ctx context.Context, g *graph.Graph, opts Options) (*Oracle, error) {
	return newOracle(ctx, g, opts.Compact32, func(c context.Context, sub *graph.Graph) (*EarAPSP, error) {
		return NewEarAPSPParallelCtx(c, sub, opts.Workers)
	})
}

// NewOracleParallel builds the oracle with the per-block processing phase
// parallelised over real goroutine workers (each block's per-source
// Dijkstra loop is itself the unit of work, mirroring the paper's
// per-component work-units).
func NewOracleParallel(g *graph.Graph, workers int) *Oracle {
	o, _ := NewOracleParallelCtx(context.Background(), g, workers)
	return o
}

// NewOracleParallelCtx is NewOracleParallel with cooperative cancellation:
// the build checks ctx between biconnected components and between the
// per-source Dijkstra units inside each component, so cancelling a request
// or hitting a deadline abandons a long build promptly. On cancellation it
// returns a nil oracle and the context error; no build metrics are
// recorded for abandoned builds. With a background context it never fails.
func NewOracleParallelCtx(ctx context.Context, g *graph.Graph, workers int) (*Oracle, error) {
	return NewOracleOpts(ctx, g, Options{Workers: workers})
}

// newOracle is a from-scratch build: the BCC partition, assemble with mk
// solving every block, then the AP table. It is the only caller that
// times phases — a loaded or delta-built oracle ran none of them.
func newOracle(ctx context.Context, g *graph.Graph, compact bool, mk func(context.Context, *graph.Graph) (*EarAPSP, error)) (*Oracle, error) {
	phases := &obs.Phases{}
	stop := phases.Start("bcc")
	dec := bcc.Compute(g)
	bct := bcc.BuildBlockCutTree(g, dec)
	stop()
	o, err := assemble(g, dec, bct, compact, phases, func(_ int, sub *graph.Subgraph) (*EarAPSP, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return mk(ctx, sub.G)
	})
	if err != nil {
		return nil, err
	}
	o.BuildPhases = phases
	stop = phases.Start("aptable")
	o.buildAPTable()
	stop()
	global := obs.Default.Phases("apsp.build")
	for _, name := range []string{"bcc", "blocks", "forest", "aptable"} {
		global.Record(name, phases.Get(name))
	}
	obs.Default.Counter("apsp.builds").Inc()
	obs.Default.Counter("apsp.build.relaxations").Add(o.Relaxations)
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
func assemble(g *graph.Graph, dec *bcc.Decomposition, bct *bcc.BlockCutTree, compact bool, ph *obs.Phases,
	block func(bi int, sub *graph.Subgraph) (*EarAPSP, error)) (*Oracle, error) {
	o := &Oracle{G: g, Dec: dec, BCT: bct, numA: len(bct.CutVertices), compact: compact, BuildPhases: &obs.Phases{}}
	stop := ph.Start("blocks")
	subs := dec.Subgraphs(g)
	o.Blocks = make([]*BlockAPSP, len(subs))
	for bi, sub := range subs {
		ea, err := block(bi, sub)
		if err != nil {
			return nil, err
		}
		if ea != nil {
			if compact {
				ea.compress()
			}
			o.Relaxations += ea.Relaxations
		}
		o.Blocks[bi] = &BlockAPSP{Sub: sub, Ear: ea}
	}
	o.buildLocIndex()
	stop()
	stop = ph.Start("forest")
	o.Forest = BuildForest(bct.BlockCuts, bct.CutBlocks)
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
// runs, so the table adds nothing to Relaxations.
func (o *Oracle) buildAPTable() {
	a := o.numA
	o.A = make([]graph.Weight, a*a)
	for i := range o.A {
		o.A[i] = Inf
	}
	gate := make([]int32, len(o.Blocks))
	var order []int32
	for s := 0; s < a; s++ {
		row := o.A[s*a : (s+1)*a]
		row[s] = 0
		order = walkForest(o.BCT.BlockCuts, o.BCT.CutBlocks, int32(s), -1, gate, order[:0])
		for _, b := range order {
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
	}
	if o.compact {
		o.a32 = compressTable(o.A)
		o.A = nil
	}
}

// compressTable converts a float64 distance table to the compact float32
// form: finite entries round once, the Inf sentinel becomes +Inf (which
// float32 represents exactly) so reads can restore it losslessly.
func compressTable(t []graph.Weight) []float32 {
	out := make([]float32, len(t))
	for i, v := range t {
		if v >= Inf {
			out[i] = float32(math.Inf(1))
		} else {
			out[i] = float32(v)
		}
	}
	return out
}

// apAt reads entry (i, j) of an a×a AP table stored in either precision.
// Compact entries above MaxFloat32 are the stored +Inf and read back as
// the exact Inf sentinel.
func apAt(a64 []graph.Weight, a32 []float32, a int, i, j int32) graph.Weight {
	if a32 != nil {
		v := a32[int(i)*a+int(j)]
		if v > math.MaxFloat32 {
			return Inf
		}
		return graph.Weight(v)
	}
	return a64[int(i)*a+int(j)]
}

func (o *Oracle) apAt(i, j int32) graph.Weight { return apAt(o.A, o.a32, o.numA, i, j) }

// Compact reports whether the oracle stores its tables as float32.
func (o *Oracle) Compact() bool { return o.compact }

// Query returns d_G(u, v) for arbitrary vertices: the pair kernel's case
// analysis (pair.go) fed from the resident per-block tables. Out-of-range
// vertices report Inf silently; new code should prefer QueryChecked, which
// surfaces them as *QueryError instead.
func (o *Oracle) Query(u, v int32) graph.Weight {
	p, err := o.StitchView().PlanPair(u, v)
	if err != nil {
		return Inf
	}
	var d [2]graph.Weight
	for i, e := range p.Want[:p.N] {
		d[i] = o.Blocks[e.Block].QueryParent(e.Src, e.Dst)
	}
	return p.Distance(d[0], d[1])
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
