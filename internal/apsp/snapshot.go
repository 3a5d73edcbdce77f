package apsp

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/bcc"
	"repro/internal/ear"
	"repro/internal/graph"
	"repro/internal/snapshot"
)

// Oracle snapshots: build-once/serve-many persistence. WriteTo serialises
// every expensive product of construction — the graph, the BCC edge
// partition, the per-block S^r distance tables, and the a×a articulation
// table — into one snapshot container. ReadOracle restores an oracle that
// answers every query bit-identically to the one that was written,
// without re-running the expensive build phases (no Hopcroft–Tarjan, no
// Dijkstra): the only work on load is decoding plus cheap deterministic
// derivation (CSR assembly, each block's linear ear reduction, inverse
// maps, rooting the block-cut forest).
//
// Sections ("meta" first, the rest in fixed order):
//
//	meta    oracle format version, n, #blocks, a, total relaxations, flags (reserved 0)
//	graph   the original graph's edge array
//	bcc     per-component edge-ID lists + articulation flags
//	blocks  per block: S^r table, relaxations
//	aptable the a×a table A behind its storage-kind tag
//
// Deliberately not stored, because each is a pure deterministic function
// of the graph and the BCC partition that decode rebuilds with the same
// code construction uses: the block-cut tree adjacency (bcc.BlockCutTree),
// each block's Subgraph, each block's ear reduction (ear.Reduce, a linear
// pass that re-derives faster than stored chain records decoded; DESIGN.md
// §6 has the measurement), the rooted block-cut forest (a stored forest
// could disagree with the partition it is supposed to be derived from),
// and the AP graph A was computed on (nothing reads it once A exists).

// oracleFormatVersion is the version of the oracle payload layout, checked
// independently of the container's own version. Bump it whenever a
// section's byte layout changes; readers reject any other version with
// snapshot.ErrVersionSkew rather than guessing.
const oracleFormatVersion = 4

// chainSection names the section older builds appended to a base oracle
// to record the deltas applied since; a loader had to replay them. A
// post-delta oracle is now written whole, so ReadOracle refuses a file
// with this section rather than silently serving its stale base.
const chainSection = "deltas"

// WriteTo serialises the oracle as a snapshot container, implementing
// io.WriterTo. A post-delta oracle writes the same way as a built one:
// the file holds the current state, and loading it replays nothing. No
// block's ear reduction is written: ReadOracle re-derives it with
// ear.Reduce, so an oracle whose blocks were reduced otherwise (the
// identity reduction of NewBanerjee) does not load back. It records no
// metric: the daemon counts the saves it publishes.
func (o *Oracle) WriteTo(w io.Writer) (int64, error) {
	sw := snapshot.NewWriter()

	meta := sw.Section("meta")
	meta.U32(oracleFormatVersion)
	meta.U64(uint64(o.G.NumVertices()))
	meta.U64(uint64(len(o.Blocks)))
	meta.U64(uint64(o.numA))
	meta.I64(o.Relaxations)
	meta.U32(0) // flags

	o.G.EncodeSnapshot(sw.Section("graph"))

	o.encodeDecomposition(sw.Section("bcc"))

	bl := sw.Section("blocks")
	for _, blk := range o.Blocks {
		EncodeTable(bl, blk.Ear.SR)
		bl.I64(blk.Ear.Relaxations)
	}

	EncodeTable(sw.Section("aptable"), o.A)

	return sw.WriteTo(w)
}

// ReadOracle restores an oracle from a snapshot written by WriteTo. Corrupt,
// truncated, or version-skewed input is rejected with an error wrapping one
// of snapshot's typed sentinels (ErrBadMagic, ErrVersionSkew, ErrChecksum,
// ErrCorrupt); ReadOracle never panics on hostile bytes. Each block's ear
// reduction is re-run (ear.Reduce over the block's subgraph, as a build
// does) and its stored S^r table must be nr×nr for it. The loaded
// oracle's BuildPhases holds one phase, "snapshot.load", which covers
// those reductions, and none of a build's, so a process that only loads
// snapshots shows zero build activity.
func ReadOracle(r io.Reader) (o *Oracle, err error) {
	t0 := time.Now()
	var sr *snapshot.Reader
	// Every decode path below validates before indexing, but a snapshot is
	// an external input to a long-lived server: convert any escaped panic
	// into the typed corruption error rather than taking the process down.
	// A failure mid-section is ErrChecksum if the section's bytes say so.
	defer func() {
		if rec := recover(); rec != nil {
			err = snapshot.Corruptf("apsp: snapshot decode panic: %v", rec)
		}
		if err != nil && sr != nil {
			o, err = nil, sr.Close(err)
		}
	}()
	if sr, err = snapshot.NewReader(r); err != nil {
		return nil, err
	}
	if sr.Has(chainSection) {
		return nil, fmt.Errorf("apsp: snapshot holds a delta chain to replay; this build loads current state only: %w",
			snapshot.ErrVersionSkew)
	}

	md := sr.Section("meta")
	md.Version("apsp: oracle snapshot", oracleFormatVersion)
	n := md.U64()
	numBlocks := md.U64()
	numA := md.U64()
	relax := md.I64()
	md.Reserved("oracle snapshot flags")
	if err := md.Finish(); err != nil {
		return nil, err
	}

	g, dec, bct, err := decodeStructure(sr, n, numBlocks, numA)
	if err != nil {
		return nil, err
	}
	bd := sr.Section("blocks")
	o, err = assemble(context.Background(), g, dec, bct, nil, 1, func(bi int, sub *graph.Subgraph) (*EarAPSP, error) {
		ea, err := decodeBlock(bd, sub, bi)
		if err != nil {
			return nil, err
		}
		ea.Relaxations = bd.I64()
		return ea, bd.Err()
	})
	if err != nil {
		return nil, err
	}
	if err := bd.Finish(); err != nil {
		return nil, err
	}
	o.Relaxations = relax // the stored total also carries the work of every delta applied
	ad := sr.Section("aptable")
	if o.A, err = DecodeTable(ad, o.numA*o.numA, "AP table"); err != nil {
		return nil, err
	}
	if err := ad.Finish(); err != nil {
		return nil, err
	}

	o.BuildPhases.Record("snapshot.load", time.Since(t0))
	return o, nil
}

// EncodeTable appends a distance table behind its reserved kind word.
func EncodeTable(e *snapshot.Encoder, t []graph.Weight) {
	e.U32(0) // storage kind: every table is float64
	e.F64s(t)
}

// DecodeTable reads a distance table of want entries; a non-zero kind is ErrCorrupt.
func DecodeTable(d *snapshot.Decoder, want int, what string) ([]graph.Weight, error) {
	d.Reserved("table kind")
	t := d.F64s()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("apsp: %s: %w", what, err)
	}
	if len(t) != want {
		return nil, snapshot.Corruptf("apsp: %s has %d table entries, want %d", what, len(t), want)
	}
	return t, nil
}

// encodeDecomposition writes the BCC section: per-component edge-ID
// lists plus articulation flags.
func (o *Oracle) encodeDecomposition(e *snapshot.Encoder) {
	e.U64(uint64(len(o.Dec.Components)))
	for _, comp := range o.Dec.Components {
		e.I32s(comp)
	}
	e.Bools(o.Dec.IsArticulation)
}

// decodeBlock re-derives one block's ear reduction with the code a build
// runs and reads its S^r table, the layout oracle and shard snapshots
// share; the table must be nr×nr for the derived reduction.
func decodeBlock(bd *snapshot.Decoder, sub *graph.Subgraph, bi int) (*EarAPSP, error) {
	red := ear.Reduce(sub.G, ear.APSP)
	nr := red.R.NumVertices()
	sr, err := DecodeTable(bd, nr*nr, "S^r")
	if err != nil {
		return nil, fmt.Errorf("block %d: %w", bi, err)
	}
	return &EarAPSP{G: sub.G, Red: red, SR: sr, nr: nr}, nil
}

// decodeStructure reads what an oracle snapshot and a shard snapshot both
// store of the structure — the graph and the BCC edge partition —
// rebuilds the block-cut tree with the code construction uses, and holds
// the three against the meta section's vertex, block and articulation
// point counts.
func decodeStructure(sr *snapshot.Reader, n, numBlocks, numA uint64) (*graph.Graph, *bcc.Decomposition, *bcc.BlockCutTree, error) {
	g, err := graph.DecodeSnapshot(sr.Section("graph"))
	if err != nil {
		return nil, nil, nil, err
	}
	if uint64(g.NumVertices()) != n {
		return nil, nil, nil, snapshot.Corruptf("apsp: meta says %d vertices, graph has %d", n, g.NumVertices())
	}
	dec, err := decodeDecomposition(sr, g, numBlocks)
	if err != nil {
		return nil, nil, nil, err
	}
	bct := bcc.BuildBlockCutTree(g, dec)
	if uint64(len(bct.CutVertices)) != numA {
		return nil, nil, nil, snapshot.Corruptf("apsp: meta says %d articulation points, partition yields %d",
			numA, len(bct.CutVertices))
	}
	return g, dec, bct, nil
}

// decodeDecomposition reads the BCC section and checks it is a genuine
// edge partition: every edge of g in exactly one component.
func decodeDecomposition(sr *snapshot.Reader, g *graph.Graph, numBlocks uint64) (*bcc.Decomposition, error) {
	bd := sr.Section("bcc")
	ncomp := bd.Count(8)
	if err := bd.Err(); err != nil {
		return nil, err
	}
	if uint64(ncomp) != numBlocks {
		return nil, snapshot.Corruptf("apsp: meta says %d blocks, bcc section has %d", numBlocks, ncomp)
	}
	m := g.NumEdges()
	seen := make([]bool, m)
	covered := 0
	dec := &bcc.Decomposition{Components: make([][]int32, ncomp)}
	for i := range dec.Components {
		comp := bd.I32s()
		if err := bd.Err(); err != nil {
			return nil, err
		}
		for _, eid := range comp {
			if eid < 0 || int(eid) >= m {
				return nil, snapshot.Corruptf("apsp: component %d references edge %d of %d", i, eid, m)
			}
			if seen[eid] {
				return nil, snapshot.Corruptf("apsp: edge %d in two components", eid)
			}
			seen[eid] = true
			covered++
		}
		dec.Components[i] = comp
	}
	if covered != m {
		return nil, snapshot.Corruptf("apsp: components cover %d of %d edges", covered, m)
	}
	dec.IsArticulation = bd.Bools()
	if err := bd.Err(); err != nil {
		return nil, err
	}
	if len(dec.IsArticulation) != g.NumVertices() {
		return nil, snapshot.Corruptf("apsp: %d articulation flags for %d vertices",
			len(dec.IsArticulation), g.NumVertices())
	}
	return dec, bd.Finish()
}
