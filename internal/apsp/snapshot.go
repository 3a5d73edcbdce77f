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

// Snapshots: build-once/serve-many persistence. One container layout,
// one writer (write) and one reader (read) serve the three files of a
// deployment: an oracle snapshot (WriteTo/ReadOracle) holds everything
// construction paid for and loads back into an oracle that answers every
// query bit-identically; a shard snapshot (WriteShardSnapshot/
// ReadShardSnapshot) holds only the owned blocks' S^r tables and no A; a
// plan manifest (WritePlan/ReadPlan) holds A and no block tables. A load
// runs the linear-time phases a build does — bcc.Compute on the stored
// graph, the block-cut forest, ear.Reduce per resident block — and no
// Dijkstra, then the assemble call a build makes, so all three kinds hold
// one topology.
//
// Sections ("meta" first, the rest in fixed order; the files holding each):
//
//	meta     payload format version, n, #blocks, a, partition sum, total relaxations, flags (reserved 0)   all
//	cluster  plan epoch, shard count, this file's shard (Frontend in a plan), block → shard                 shard, plan
//	graph    the original graph's edge array                                                               all
//	blocks   per resident block: S^r as held (upper triangle behind its kind), relaxations                 all (empty in a plan)
//	aptable  A as held (upper triangle behind its kind)                                                    oracle, plan
//
// A table is written at the type it is held in (table): kind 1 is the
// upper triangle, row-major, as float64; kinds 2, 3 and 4 are the same
// entries as float32, uint8 and uint16, each of which round-trips to the
// float64 it was computed as. Each loads back at its own type; any other
// kind is ErrCorrupt (v4's square was kind 0).
//
// An oracle snapshot has no cluster section; that is how a reader tells
// the file kinds apart and refuses the two it does not load by name
// (snapshot.ErrWrongKind).
//
// Deliberately not stored, because each is a pure deterministic function
// of the graph that decode rebuilds with the same code construction uses:
// the BCC partition (meta keeps its Sum: the block order every
// block-indexed table was written in), the block-cut tree with each block's vertex list
// (BlockVerts, the order its S^r rows are indexed in), each resident
// block's graph and ear reduction (ear.Reduce re-derives faster than
// stored chain records decoded; DESIGN.md §6 has the measurement), the
// rooted block-cut forest, and the AP graph A was computed on. A block
// whose table the file does not hold gets no graph at all.

// formatVersion is the version of the payload layout, checked
// independently of the container's own version. Bump it whenever a
// section's byte layout changes; readers reject any other version with
// snapshot.ErrVersionSkew rather than guessing.
const formatVersion = 8

// Frontend is the shard id a plan manifest's cluster section carries: the
// file serves the cluster frontend, which holds no block tables.
const Frontend int32 = -1

// ShardMeta identifies one shard's slice of a plan: which plan epoch the
// tables were carved under, and which shard of how many this is. The
// frontend refuses to stitch rows from a shard whose epoch differs from
// its manifest's.
type ShardMeta struct {
	Epoch     uint64
	Shard     int32
	NumShards int32
}

// Cluster is the cluster section of a shard snapshot or a plan manifest.
type Cluster struct {
	// ShardMeta is the plan epoch, the shard count and this file's shard:
	// Frontend in a plan manifest.
	ShardMeta
	// Assign maps each block to the shard owning its tables. A shard
	// snapshot names only its own blocks and holds -1 for the rest.
	Assign []int32
}

// kind is which of the three files a container is.
type kind int

const (
	oracleKind kind = iota
	shardKind
	planKind
)

// kinds names each kind and the oracled flag that serves it.
var kinds = [...]struct{ name, flag string }{
	oracleKind: {"oracle snapshot", "-load-snapshot"},
	shardKind:  {"shard snapshot", "-shard-snapshot"},
	planKind:   {"plan manifest", "-cluster-plan"},
}

func (c *Cluster) kind() kind {
	switch {
	case c == nil:
		return oracleKind
	case c.Shard == Frontend:
		return planKind
	}
	return shardKind
}

// resident reports whether the file holds block b's tables.
func (c *Cluster) resident(b int) bool { return c == nil || c.Assign[b] == c.Shard }

// validate holds the section to a plan of numBlocks blocks: at least one
// shard, this file's shard among them (or the frontend), and every block
// assigned within range — in a shard snapshot, to this shard or to none.
func (c *Cluster) validate(numBlocks uint64) error {
	switch {
	case c.NumShards < 1:
		return fmt.Errorf("apsp: plan has %d shards", c.NumShards)
	case c.Shard != Frontend && (c.Shard < 0 || c.Shard >= c.NumShards):
		return fmt.Errorf("apsp: shard %d of %d out of range", c.Shard, c.NumShards)
	case uint64(len(c.Assign)) != numBlocks:
		return fmt.Errorf("apsp: %d assignments for %d blocks", len(c.Assign), numBlocks)
	}
	for b, s := range c.Assign {
		if c.Shard == Frontend && (s < 0 || s >= c.NumShards) || c.Shard != Frontend && s != c.Shard && s != -1 {
			return fmt.Errorf("apsp: %s of shard %d assigns block %d to shard %d of %d",
				kinds[c.kind()].name, c.Shard, b, s, c.NumShards)
		}
	}
	return nil
}

// WriteTo serialises the oracle as a snapshot container, implementing
// io.WriterTo. A post-delta oracle writes the same way as a built one:
// the file holds the current state, and loading it replays nothing. No
// block's ear reduction is written: ReadOracle re-derives it with
// ear.Reduce, so an oracle whose blocks were reduced otherwise (the
// identity reduction of NewBanerjee) does not load back. It records no
// metric: the daemon counts the saves it publishes.
func (o *Oracle) WriteTo(w io.Writer) (int64, error) { return o.write(w, nil) }

// WritePlan serialises the plan manifest a cluster frontend loads: the
// oracle's graph and A without block tables, and the cluster
// section of a plan epoch over numShards shards, assign mapping each
// block to its owner.
func (o *Oracle) WritePlan(w io.Writer, epoch uint64, numShards int32, assign []int32) (int64, error) {
	return o.write(w, &Cluster{ShardMeta{Epoch: epoch, Shard: Frontend, NumShards: numShards}, assign})
}

// write is the one container writer: the whole oracle when c is nil, else
// the shard snapshot or plan manifest c describes.
func (o *Oracle) write(w io.Writer, c *Cluster) (int64, error) {
	if c != nil {
		if err := c.validate(uint64(len(o.Blocks))); err != nil {
			return 0, err
		}
	}
	sw := snapshot.NewWriter()

	meta := sw.Section("meta")
	meta.U32(formatVersion)
	meta.U64(uint64(o.G.NumVertices()))
	meta.U64(uint64(len(o.Blocks)))
	meta.U64(uint64(o.numA))
	meta.U64(o.Dec.Sum())
	meta.I64(o.Relaxations)
	meta.U32(0) // flags

	if c != nil {
		ce := sw.Section("cluster")
		ce.U64(c.Epoch)
		ce.I32(c.NumShards)
		ce.I32(c.Shard)
		ce.I32s(c.Assign)
	}

	o.G.EncodeSnapshot(sw.Section("graph"))

	bl := sw.Section("blocks")
	for bi, blk := range o.Blocks {
		if c.resident(bi) {
			blk.sr.encode(bl)
			bl.I64(blk.Relaxations)
		}
	}
	if c.kind() != shardKind {
		o.apTab.encode(sw.Section("aptable"))
	}

	return sw.WriteTo(w)
}

// ReadOracle restores an oracle from a snapshot written by WriteTo. Corrupt,
// truncated, or version-skewed input is rejected with an error wrapping one
// of snapshot's typed sentinels (ErrBadMagic, ErrVersionSkew, ErrChecksum,
// ErrCorrupt), and a shard snapshot or plan manifest with ErrWrongKind;
// ReadOracle never panics on hostile bytes. The BCC partition is derived
// from the stored graph (bcc.Compute, as a build does) and must match
// meta's block count, articulation count and partition sum; each block's
// ear reduction is re-run (ear.Reduce over the block's graph) and its
// stored S^r must be the nr×nr triangle for it. The loaded oracle's
// BuildPhases holds one phase, "snapshot.load", which covers the
// partition and those reductions, and none of a build's, so a process
// that only loads snapshots shows zero build activity.
func ReadOracle(r io.Reader) (*Oracle, error) {
	o, _, err := read(r, oracleKind)
	return o, err
}

// ReadPlan restores a plan manifest written by WritePlan: an oracle with
// A and the block-cut forest but no block tables (every Blocks[b] is
// nil), which answers no query itself but runs the pair and row kernels
// (PlanPair, EntryAt, StitchRow) over the monolith's topology and A given
// block rows from elsewhere, and the manifest's cluster section. Errors
// are typed as ReadOracle's.
func ReadPlan(r io.Reader) (*Oracle, *Cluster, error) { return read(r, planKind) }

// read is the one container reader: it loads a file of kind want and
// refuses the other two kinds by name. Blocks whose tables the file does
// not hold are assembled without them (Blocks[b] nil, and no block
// graph built), and only the kinds that store A load it.
func read(r io.Reader, want kind) (o *Oracle, c *Cluster, err error) {
	t0 := time.Now()
	var sr *snapshot.Reader
	// Every decode path below validates before indexing, but a snapshot is
	// an external input to a long-lived server: convert any escaped panic
	// into the typed corruption error rather than taking the process down.
	// A failure mid-section is ErrChecksum if the section's bytes say so.
	defer func() {
		if rec := recover(); rec != nil {
			err = snapshot.Corruptf("apsp: %s decode panic: %v", kinds[want].name, rec)
		}
		if err != nil && sr != nil {
			o, c, err = nil, nil, sr.Close(err)
		}
	}()
	if sr, err = snapshot.NewReader(r); err != nil {
		return nil, nil, err
	}
	// A delta chain to replay (section "deltas") and the hand-encoded plan
	// manifest (section "plan") are retired layouts, not half-decoded.
	if sr.Has("deltas") || sr.Has("plan") {
		return nil, nil, fmt.Errorf("apsp: a delta chain or a v1 plan manifest; rebuild it with this build: %w",
			snapshot.ErrVersionSkew)
	}

	md := sr.Section("meta")
	md.Version("apsp: snapshot", formatVersion)
	n, numBlocks, numA, sum, relax := md.U64(), md.U64(), md.U64(), md.U64(), md.I64()
	md.Reserved("snapshot flags")
	if err := md.Finish(); err != nil {
		return nil, nil, err
	}
	if sr.Has("cluster") {
		cd := sr.Section("cluster")
		c = &Cluster{ShardMeta: ShardMeta{Epoch: cd.U64(), NumShards: cd.I32(), Shard: cd.I32()}, Assign: cd.I32s()}
		if err := cd.Finish(); err != nil {
			return nil, nil, err
		}
		if err := c.validate(numBlocks); err != nil {
			return nil, nil, snapshot.Corruptf("%v", err)
		}
		if c.Epoch == 0 { // the writer's "derive me" value: PlanShards hashes the manifest under it
			return nil, nil, snapshot.Corruptf("apsp: plan epoch 0")
		}
	}
	if got := c.kind(); got != want {
		return nil, nil, fmt.Errorf("apsp: reading a file as %s, found %s; serve it with oracled %s: %w",
			kinds[want].name, kinds[got].name, kinds[got].flag, snapshot.ErrWrongKind)
	}

	g, err := graph.DecodeSnapshot(sr.Section("graph"))
	if err != nil {
		return nil, nil, err
	}
	if uint64(g.NumVertices()) != n {
		return nil, nil, snapshot.Corruptf("apsp: meta says %d vertices, graph has %d", n, g.NumVertices())
	}
	dec := bcc.Compute(g)
	if uint64(len(dec.Components)) != numBlocks {
		return nil, nil, snapshot.Corruptf("apsp: meta says %d blocks, the graph has %d", numBlocks, len(dec.Components))
	}
	if dec.Sum() != sum {
		return nil, nil, fmt.Errorf("apsp: partition sum %#x, this build derives %#x; rebuild the file with this build: %w",
			sum, dec.Sum(), snapshot.ErrVersionSkew)
	}
	o = &Oracle{G: g, Dec: dec, BCT: bcc.BuildBlockCutTree(g, dec)}
	if uint64(len(o.BCT.CutVertices)) != numA {
		return nil, nil, snapshot.Corruptf("apsp: meta says %d articulation points, partition yields %d",
			numA, len(o.BCT.CutVertices))
	}
	bd := sr.Section("blocks")
	err = o.assemble(context.Background(), nil, 1, func(bi int) (*EarAPSP, error) {
		if !c.resident(bi) {
			return nil, nil
		}
		return decodeBlock(bd, o.blockGraph(bi), bi)
	})
	if err != nil {
		return nil, nil, err
	}
	if err := bd.Finish(); err != nil {
		return nil, nil, err
	}
	o.Relaxations = relax // the stored total also carries the work of every delta applied
	if want != shardKind {
		ad := sr.Section("aptable")
		if o.apTab, err = decodeTable(ad, o.numA, "AP table"); err != nil {
			return nil, nil, err
		}
		if err := ad.Finish(); err != nil {
			return nil, nil, err
		}
	}

	o.BuildPhases.Record("snapshot.load", time.Since(t0))
	return o, c, nil
}

// decodeTable reads the upper triangle of a side-n distance table
// straight into a slice of its kind's type; any other kind, or any length
// but triLen(n), is ErrCorrupt.
func decodeTable(d *snapshot.Decoder, n int, what string) (table, error) {
	k := d.U32()
	if d.Err() == nil && (k < kind64 || k > kind16) {
		return nil, snapshot.Corruptf("apsp: %s kind %d, want %d to %d", what, k, kind64, kind16)
	}
	var t table
	if d.Err() == nil {
		t = tableKinds[k].read(d)
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("apsp: %s: %w", what, err)
	}
	if t.len() != triLen(n) {
		return nil, snapshot.Corruptf("apsp: %s has %d table entries, want %d", what, t.len(), triLen(n))
	}
	return t, nil
}

// decodeBlock re-derives one block's ear reduction with the code a build
// runs and reads its S^r table and relaxation count; the table must be
// the nr×nr upper triangle for the derived reduction.
func decodeBlock(bd *snapshot.Decoder, g *graph.Graph, bi int) (*EarAPSP, error) {
	red := ear.Reduce(g, ear.APSP)
	nr := red.R.NumVertices()
	sr, err := decodeTable(bd, nr, "S^r")
	if err != nil {
		return nil, fmt.Errorf("block %d: %w", bi, err)
	}
	return &EarAPSP{Red: red, sr: sr, nr: nr, Relaxations: bd.I64()}, bd.Err()
}
