package apsp

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/bcc"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/par"
)

// Oracle is the paper's general-graph APSP structure (Section 2.2): one
// ear-reduced APSP per biconnected component, an a×a distance table A over
// the articulation points, and one block-cut forest whose navigation finds,
// for any cross-component pair, the two gateway articulation points of the
// unique tree path between their blocks (distances) and every cut vertex
// in between (paths).
//
// Storage is O(a² + Σ nr_i²), the paper's memory bound, rather than O(n²).
type Oracle struct {
	G   *graph.Graph
	Dec *bcc.Decomposition
	BCT *bcc.BlockCutTree
	// Blocks[b] is block b's ear-reduced APSP over its graph in
	// BCT.BlockVerts[b] order; nil when this oracle holds no table for
	// the block (a plan, or a block another shard owns).
	Blocks []*EarAPSP

	// apTab is A, the symmetric a×a articulation-point table over
	// BCT.CutVertices indices, as its upper triangle.
	apTab table
	numA  int

	// loc is the flat parent→local vertex index over BCT.BlockVerts.
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
	o := &Oracle{G: g, Dec: dec, BCT: bcc.BuildBlockCutTree(g, dec)}
	stop()
	err := o.assemble(ctx, phases, workers, func(bi int) (*EarAPSP, error) {
		return mk(ctx, o.blockGraph(bi), workers)
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

// assemble is the one maker of an oracle's derived structure over its G,
// Dec and BCT, the fixed order of PAPER.md §2.2: the shared vertex index,
// one EarAPSP per block, the rooted block-cut forest. Every way an oracle
// comes to exist — built, structurally updated, loaded, carved for a
// shard — is this call plus where the AP table A comes from; only what
// block does differs: it builds, reuses or decodes block bi's tables, and
// a nil EarAPSP means "not resident here". A callback builds a block's
// graph (blockGraph) only for a block it solves or decodes. The
// Relaxations set is the sum over resident blocks. ph, which may be nil,
// times the "blocks" and "forest" phases for the one caller that builds
// from scratch.
//
// With workers > 1 the blocks are par tasks, largest (most edges) first,
// so block must be safe to call concurrently. With one worker they run in
// block order, which is what a decode reading its stream needs. No block
// is claimed once ctx is done or a block has failed; the first failure
// is returned.
func (o *Oracle) assemble(ctx context.Context, ph *obs.Phases, workers int, block func(bi int) (*EarAPSP, error)) error {
	o.numA, o.BuildPhases = len(o.BCT.CutVertices), &obs.Phases{}
	stop := ph.Start("blocks")
	o.loc = newLocIndex(o.BCT)
	nb := len(o.Dec.Components)
	o.Blocks = make([]*EarAPSP, nb)
	order := make([]int, nb)
	for i := range order {
		order[i] = i
	}
	if workers > 1 {
		comps := o.Dec.Components
		slices.SortStableFunc(order, func(x, y int) int { return cmp.Compare(len(comps[y]), len(comps[x])) })
	}
	var failed atomic.Pointer[error]
	err := par.ParallelForCtx(ctx, workers, nb, func(_, i int) {
		if failed.Load() != nil {
			return
		}
		bi := order[i]
		ea, err := block(bi)
		if err != nil {
			first := err // escapes only on this path, not once per block
			failed.CompareAndSwap(nil, &first)
			return
		}
		o.Blocks[bi] = ea
	})
	if p := failed.Load(); p != nil {
		err = *p
	}
	if err != nil {
		return err
	}
	for _, b := range o.Blocks {
		if b != nil {
			o.Relaxations += b.Relaxations
		}
	}
	stop()
	stop = ph.Start("forest")
	o.Forest = newForest(o.BCT)
	stop()
	return nil
}

// blockGraph builds block bi's graph in local vertex IDs: the component's
// edges in order, endpoints mapped through the vertex index. It is the
// graph graph.InducedByEdges builds over the component, without its maps.
func (o *Oracle) blockGraph(bi int) *graph.Graph {
	comp := o.Dec.Components[bi]
	edges := make([]graph.Edge, len(comp))
	for i, eid := range comp {
		e := o.G.Edge(eid)
		edges[i] = graph.Edge{U: o.loc.local(int32(bi), e.U), V: o.loc.local(int32(bi), e.V), W: e.W}
	}
	return graph.FromEdges(len(o.BCT.BlockVerts[bi]), edges)
}

// row writes the in-block distance row d_b(src, v) for every vertex v of
// block b, in BCT.BlockVerts[b] order, into out (len = the block's vertex
// count). src is a parent vertex ID; one outside the block yields an
// all-Inf row, mirroring QueryParent. It is the single inner loop behind
// both the monolith's rows and a shard daemon's BlockRow.
func (o *Oracle) row(b, src int32, out []graph.Weight) {
	lu := o.loc.local(b, src)
	if lu < 0 {
		for i := range out {
			out[i] = Inf
		}
		return
	}
	o.Blocks[b].Row(lu, out)
}

// QueryParent answers the in-block distance d_b(u, v) in parent vertex
// IDs; Inf when either vertex is not on block b. It is EarAPSP.Query
// with the type picked here, one call shallower on the pair path.
func (o *Oracle) QueryParent(b, u, v int32) graph.Weight {
	lu, lv := o.loc.local(b, u), o.loc.local(b, v)
	if lu < 0 || lv < 0 {
		return Inf
	}
	blk := o.Blocks[b]
	return blk.sr.query(blk, lu, lv)
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
// par tasks, each worker walking row s of a square with its own gate and
// queue; the square is then packed as the S^r fill packs its own
// (packTable), keeping row s's entries (s, c ≥ s), so the lower cut
// index's walk gives each pair its one stored value.
func (o *Oracle) buildAPTable(workers int) {
	a, nb := o.numA, len(o.Blocks)
	workers = max(1, min(workers, a))
	sq, gates, orders := make([]graph.Weight, a*a), make([]int32, workers*nb), make([][]int32, workers)
	par.ParallelFor(workers, a, func(w, s int) {
		row, gate := sq[s*a:(s+1)*a], gates[w*nb:(w+1)*nb]
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
				row[c] = addInf(row[g], o.QueryParent(b, u, v), 0)
			}
		}
	})
	o.apTab = packTable(sq, a)
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
		d[i] = o.QueryParent(e.Block, e.Src, e.Dst)
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
	for _, verts := range o.BCT.BlockVerts {
		ni := int64(len(verts))
		ours += ni * ni
	}
	n := int64(o.G.NumVertices())
	return MemoryPlan{OursEntries: ours, MaxEntries: n * n}
}

// ReducedMemory counts the table entries this oracle stores: A and every
// resident block's S^r over reduced vertices, each as its upper triangle
// (a(a+1)/2 + Σ nr_i(nr_i+1)/2), shown alongside the paper's model in the
// Table 1 harness. A plan or a shard holds no tables for the blocks it
// does not own, and counts none.
func (o *Oracle) ReducedMemory() int64 {
	var entries int64
	for _, t := range o.tables() {
		entries += int64(t.len())
	}
	return entries
}

// TableBytes returns the bytes the tables ReducedMemory counts take at
// their stored types, and how many of those tables (A and each resident
// S^r) each kind holds.
func (o *Oracle) TableBytes() (bytes int64, kinds TableCounts) {
	for _, t := range o.tables() {
		bytes += tableKinds[t.kind()].size * int64(t.len())
		kinds[t.kind()]++
	}
	return bytes, kinds
}

// TableCounts counts tables by kind word.
type TableCounts [len(tableKinds)]int

// String lists each kind an oracle holds a table of, with its count, as
// "579 uint8, 1 uint16".
func (c TableCounts) String() string {
	var parts []string
	for k, n := range c {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("%d %s", n, tableKinds[k].name))
		}
	}
	return strings.Join(parts, ", ")
}

// tables lists A, unless the oracle is a shard's, which holds none, and
// every resident S^r.
func (o *Oracle) tables() []table {
	var ts []table
	if o.apTab != nil {
		ts = append(ts, o.apTab)
	}
	for _, blk := range o.Blocks {
		if blk != nil {
			ts = append(ts, blk.sr)
		}
	}
	return ts
}

// NodesRemoved returns the total vertices removed by ear reduction across
// resident blocks — Table 1's "Nodes Removed" column. A vertex shared by
// several blocks (an articulation point) is never removed; interior chain
// vertices belong to exactly one block, so the per-block sum counts each
// removed vertex once.
func (o *Oracle) NodesRemoved() int {
	total := 0
	for _, blk := range o.Blocks {
		if blk != nil {
			total += blk.Red.NumRemoved()
		}
	}
	return total
}
