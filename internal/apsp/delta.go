package apsp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/bcc"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/par"
)

// Live updates. The paper's decomposition is exactly what makes an APSP
// oracle incrementally maintainable: a weight change inside one
// biconnected component perturbs only that component's reduced tables
// (and, through its cut-to-cut distances, the a×a AP table), while every other
// block's ear reduction and S^r table stays bit-identical. ApplyDelta
// exploits that locality. It never mutates the receiver: it returns a NEW
// oracle that shares every untouched immutable sub-structure with the old
// one, so a serving layer can keep answering on the old oracle until it
// atomically swaps in the new one.
//
// Two paths:
//
//   - cheap path — every delta is a weight change: the BCC partition, the
//     block-cut forest, and all untouched blocks' EarAPSPs are shared by
//     reference; only blocks containing a changed edge re-run ear
//     reduction + S^r, and the AP table is recomputed only if one of them
//     carries ≥ 2 articulation points.
//
//   - scoped rebuild (the rebuild-fallback boundary) — any insert or
//     delete can merge or split biconnected components, so the partition
//     and forest are recomputed from scratch; but each new component whose
//     edge sequence is identical (after edge-ID remapping) to an untouched
//     old component reuses the old component's EarAPSP — the expensive
//     per-block Dijkstra work — outright. Only genuinely changed
//     components are recomputed.
//
// Delta scripts are positional: edge IDs refer to the edge list AT THE
// TIME the delta applies. A delete removes its slot, shifting every later
// edge ID down by one; an insert appends at the end. Vertices are never
// removed; an insert may reference up to two vertices beyond the current
// count, growing the graph (the bound keeps hostile scripts from
// allocating unboundedly).

// DeltaKind classifies one mutation.
type DeltaKind uint8

const (
	// DeltaWeight sets the weight of existing edge Edge to W.
	DeltaWeight DeltaKind = iota
	// DeltaInsert appends a new edge {U, V} with weight W. Endpoints may
	// exceed the current vertex count by at most two, growing the graph.
	DeltaInsert
	// DeltaDelete removes existing edge Edge; later edge IDs shift down.
	DeltaDelete
)

func (k DeltaKind) String() string {
	switch k {
	case DeltaWeight:
		return "weight"
	case DeltaInsert:
		return "insert"
	case DeltaDelete:
		return "delete"
	}
	return fmt.Sprintf("DeltaKind(%d)", uint8(k))
}

// Delta is one graph mutation. Which fields are read depends on Kind:
// Edge for weight/delete, U/V for insert, W for weight/insert.
type Delta struct {
	Kind DeltaKind
	Edge int32
	U, V int32
	W    graph.Weight
}

// ErrBadDelta reports a delta rejected by validation (edge ID out of
// range at its point of application, negative/NaN/Inf weight, endpoint
// out of the bounded-growth range, or an unknown kind). ApplyDelta
// validates the whole script before touching anything, so a script that
// fails leaves the oracle unchanged.
var ErrBadDelta = errors.New("apsp: invalid delta")

func badDeltaf(i int, format string, args ...any) error {
	return fmt.Errorf("apsp: delta %d: %s: %w", i, fmt.Sprintf(format, args...), ErrBadDelta)
}

func checkDeltaWeight(i int, w graph.Weight) error {
	if math.IsNaN(w) || w < 0 || w >= Inf {
		return badDeltaf(i, "weight %v outside [0, Inf)", w)
	}
	return nil
}

// editTrace is the audited result of applying a delta script to an edge
// list, carrying enough provenance to classify the change against the old
// block partition.
type editTrace struct {
	n     int          // vertex count after the script
	edges []graph.Edge // edge list after the script (fresh copy)

	structural bool // any insert or delete in the script

	// origOf[newID] is the old-graph edge ID a surviving edge came from,
	// or -1 for an edge inserted by the script.
	origOf []int32
	// weightChanged marks old edge IDs whose weight the script changed.
	weightChanged map[int32]bool
	// deletedOld lists old edge IDs the script removed.
	deletedOld []int32
}

// traceEdits validates and applies deltas to an n-vertex edge list,
// returning the full trace. The input slice is never mutated.
func traceEdits(n int, edges []graph.Edge, deltas []Delta) (*editTrace, error) {
	tr := &editTrace{
		n:             n,
		edges:         append([]graph.Edge(nil), edges...),
		origOf:        make([]int32, len(edges)),
		weightChanged: make(map[int32]bool),
	}
	for i := range tr.origOf {
		tr.origOf[i] = int32(i)
	}
	for i, d := range deltas {
		switch d.Kind {
		case DeltaWeight:
			if d.Edge < 0 || int(d.Edge) >= len(tr.edges) {
				return nil, badDeltaf(i, "weight change on edge %d of %d", d.Edge, len(tr.edges))
			}
			if err := checkDeltaWeight(i, d.W); err != nil {
				return nil, err
			}
			tr.edges[d.Edge].W = d.W
			if orig := tr.origOf[d.Edge]; orig >= 0 {
				tr.weightChanged[orig] = true
			}
		case DeltaInsert:
			if d.U < 0 || d.V < 0 {
				return nil, badDeltaf(i, "insert endpoint (%d,%d) negative", d.U, d.V)
			}
			hi := int(d.U) + 1
			if int(d.V)+1 > hi {
				hi = int(d.V) + 1
			}
			if hi > tr.n+2 {
				return nil, badDeltaf(i, "insert endpoint (%d,%d) beyond %d+2 vertices", d.U, d.V, tr.n)
			}
			if err := checkDeltaWeight(i, d.W); err != nil {
				return nil, err
			}
			tr.edges = append(tr.edges, graph.Edge{U: d.U, V: d.V, W: d.W})
			tr.origOf = append(tr.origOf, -1)
			if hi > tr.n {
				tr.n = hi
			}
			tr.structural = true
		case DeltaDelete:
			if d.Edge < 0 || int(d.Edge) >= len(tr.edges) {
				return nil, badDeltaf(i, "delete of edge %d of %d", d.Edge, len(tr.edges))
			}
			if orig := tr.origOf[d.Edge]; orig >= 0 {
				tr.deletedOld = append(tr.deletedOld, orig)
			}
			tr.edges = append(tr.edges[:d.Edge], tr.edges[d.Edge+1:]...)
			tr.origOf = append(tr.origOf[:d.Edge], tr.origOf[d.Edge+1:]...)
			tr.structural = true
		default:
			return nil, badDeltaf(i, "unknown kind %d", d.Kind)
		}
	}
	return tr, nil
}

// MutateEdges applies a delta script to an edge list, returning the new
// vertex count and a fresh edge slice. It is the pure reference semantics
// of ApplyDelta: building an oracle on the mutated graph must answer
// identically to applying the script incrementally (internal/check holds
// the two sides together).
func MutateEdges(n int, edges []graph.Edge, deltas []Delta) (int, []graph.Edge, error) {
	tr, err := traceEdits(n, edges, deltas)
	if err != nil {
		return 0, nil, err
	}
	return tr.n, tr.edges, nil
}

// MutateGraph applies a delta script to a graph, returning the mutated
// graph; g itself is never modified.
func MutateGraph(g *graph.Graph, deltas []Delta) (*graph.Graph, error) {
	n, edges, err := MutateEdges(g.NumVertices(), g.Edges(), deltas)
	if err != nil {
		return nil, err
	}
	return graph.FromEdges(n, edges), nil
}

// DeltaResult reports what one ApplyDelta actually did.
type DeltaResult struct {
	// TouchedBlocks counts blocks whose ear reduction + S^r table were
	// recomputed; ReusedBlocks counts blocks carried over by reference.
	TouchedBlocks int
	ReusedBlocks  int
	// RebuildFallback is true when the script crossed the cheap-path
	// boundary (contained an insert or delete) and the partition + forest
	// were recomputed.
	RebuildFallback bool
	// APRebuilt is true when the a×a articulation table was recomputed.
	APRebuilt bool
}

// ApplyDelta applies a delta script and returns a new oracle for the
// mutated graph; the receiver is never modified and keeps answering
// queries for the old graph. The script is validated in full before any
// work happens: on error (wrapping ErrBadDelta) or context cancellation
// the receiver is the only oracle there is.
//
// The new oracle's BuildPhases holds the apply's time as "delta.apply";
// with the DeltaResult, that is everything the serving layer records
// about it.
func (o *Oracle) ApplyDelta(ctx context.Context, deltas []Delta) (*Oracle, *DeltaResult, error) {
	return o.ApplyDeltaParallel(ctx, deltas, par.Workers())
}

// ApplyDeltaParallel is ApplyDelta with an explicit worker count for the
// per-block recomputations (mirroring NewOracleParallelCtx).
func (o *Oracle) ApplyDeltaParallel(ctx context.Context, deltas []Delta, workers int) (*Oracle, *DeltaResult, error) {
	t0 := time.Now()
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	tr, err := traceEdits(o.G.NumVertices(), o.G.Edges(), deltas)
	if err != nil {
		return nil, nil, err
	}
	var (
		n   *Oracle
		res *DeltaResult
	)
	if tr.structural {
		n, res, err = o.applyStructural(ctx, tr, workers)
	} else {
		n, res, err = o.applyWeightOnly(ctx, tr, workers)
	}
	if err != nil {
		return nil, nil, err
	}
	n.BuildPhases.Record("delta.apply", time.Since(t0))
	return n, res, nil
}

// oldEdgeBlocks maps every old edge ID to its biconnected component.
func (o *Oracle) oldEdgeBlocks() []int32 {
	eb := make([]int32, o.G.NumEdges())
	for bi, comp := range o.Dec.Components {
		for _, eid := range comp {
			eb[eid] = int32(bi)
		}
	}
	return eb
}

// applyWeightOnly is the cheap path: the edge set is unchanged, so the
// BCC partition and the block-cut forest are shared by reference, and only
// blocks containing a re-weighted edge recompute their ear reduction and
// S^r table. The AP table is recomputed only when a touched block carries
// at least two articulation points (otherwise it contributes no AP edge).
//
// It is the one oracle maker that does not go through assemble, on
// purpose: sharing the block-cut tree, loc, Forest and every untouched
// block's EarAPSP by pointer is the whole point of the path. Folding it
// into assemble (partition still shared, all else re-made) measured on
// the benchmark's `blocks` fixture (7 196 vertices, 579 blocks, a
// small-block reweight) 1.1 → 4.5 ms per delta when proposed, 0.5 → 2.6
// ms when this landed. What the script is observed to contain selects
// the fork (editTrace.structural), never an option; DESIGN.md §8.
func (o *Oracle) applyWeightOnly(ctx context.Context, tr *editTrace, workers int) (*Oracle, *DeltaResult, error) {
	newG := graph.FromEdges(tr.n, tr.edges)
	edgeBlock := o.oldEdgeBlocks()
	touched := make(map[int32]bool)
	for eid := range tr.weightChanged {
		touched[edgeBlock[eid]] = true
	}

	n := &Oracle{
		G: newG, Dec: o.Dec, BCT: o.BCT, apTab: o.apTab, numA: o.numA,
		Forest: o.Forest, loc: o.loc,
		Relaxations: o.Relaxations,
		BuildPhases: &obs.Phases{},
	}
	n.Blocks = slices.Clone(o.Blocks)

	apRebuild := false
	for bi := range o.Blocks {
		if !touched[int32(bi)] {
			continue
		}
		// The shared vertex index stays valid for the rebuilt block: the
		// edge sequence, and so the block's vertex list, is unchanged.
		ea, err := NewEarAPSPParallelCtx(ctx, n.blockGraph(bi), workers)
		if err != nil {
			return nil, nil, err
		}
		n.Blocks[bi] = ea
		n.Relaxations += ea.Relaxations
		if len(o.BCT.BlockCuts[bi]) >= 2 {
			apRebuild = true
		}
	}
	if apRebuild {
		n.buildAPTable(workers)
	}
	res := &DeltaResult{
		TouchedBlocks: len(touched),
		ReusedBlocks:  len(o.Blocks) - len(touched),
		APRebuilt:     apRebuild,
	}
	return n, res, nil
}

// applyStructural is the scoped rebuild: inserts/deletes can merge or
// split biconnected components, so the partition is recomputed and the
// oracle re-assembled over it (assemble, the same maker a fresh build
// uses) — but every new component whose edge sequence is identical
// (after remapping old edge IDs through the script's shifts) to a clean
// old component hands assemble that component's EarAPSP instead of
// solving it again.
//
// Why sequence equality suffices: Hopcroft–Tarjan ignores weights, CSR
// adjacency preserves the relative order of surviving edges, and
// BlockCutTree.BlockVerts orders a block's vertices by first appearance in
// its edge sequence — so an identical remapped sequence with identical
// endpoints and weights yields a structurally identical block graph, and
// the old reduced tables answer for it bit-identically. A reused block's
// graph is never built.
func (o *Oracle) applyStructural(ctx context.Context, tr *editTrace, workers int) (*Oracle, *DeltaResult, error) {
	newG := graph.FromEdges(tr.n, tr.edges)
	dec := bcc.Compute(newG)

	edgeBlock := o.oldEdgeBlocks()
	dirty := make(map[int32]bool)
	for eid := range tr.weightChanged {
		dirty[edgeBlock[eid]] = true
	}
	for _, eid := range tr.deletedOld {
		dirty[edgeBlock[eid]] = true
	}

	// Old blocks share no edge, so the one old block a new component can
	// reuse is the one its first edge came from: if no delta touched it
	// and it holds the same edge sequence.
	reused := make([]bool, len(dec.Components))
	n := &Oracle{G: newG, Dec: dec, BCT: bcc.BuildBlockCutTree(newG, dec)}
	err := n.assemble(ctx, nil, workers, func(ci int) (*EarAPSP, error) {
		comp := dec.Components[ci]
		if first := tr.origOf[comp[0]]; first >= 0 && !dirty[edgeBlock[first]] {
			bi := edgeBlock[first]
			old := o.Dec.Components[bi]
			same := len(old) == len(comp) && len(o.BCT.BlockVerts[bi]) == len(n.BCT.BlockVerts[ci])
			for i := 0; same && i < len(comp); i++ {
				same = tr.origOf[comp[i]] == old[i]
			}
			if same {
				reused[ci] = true
				return o.Blocks[bi], nil
			}
		}
		return NewEarAPSPParallelCtx(ctx, n.blockGraph(ci), workers)
	})
	if err != nil {
		return nil, nil, err
	}
	// Construction work accumulates across applies: what the old oracle
	// cost plus the blocks this apply solved afresh; A relaxes nothing.
	touched := 0
	n.Relaxations = o.Relaxations
	for ci, b := range n.Blocks {
		if !reused[ci] {
			touched++
			n.Relaxations += b.Relaxations
		}
	}
	n.buildAPTable(workers)

	res := &DeltaResult{
		TouchedBlocks:   touched,
		ReusedBlocks:    len(n.Blocks) - touched,
		RebuildFallback: true,
		APRebuilt:       true,
	}
	return n, res, nil
}
