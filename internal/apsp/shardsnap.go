package apsp

import (
	"context"
	"fmt"
	"io"

	"repro/internal/graph"
	"repro/internal/snapshot"
)

// Shard snapshots: the per-process slice of one oracle that a shard
// daemon serves. The planner (internal/shard) builds the monolith oracle
// once, assigns each block of the block-cut forest to a shard, and calls
// WriteShardSnapshot per shard. The carved snapshot keeps the full graph
// and BCC partition — both cheap, and required so the shard rebuilds the
// exact same subgraphs and vertex numbering as the monolith — but only
// the owned blocks' S^r tables, which dominate the oracle's memory. Each
// owned block's ear reduction is re-derived on load with ear.Reduce, as
// ReadOracle does.
//
// Because the tables are copied from the built oracle rather than
// recomputed, a shard's in-block answers are bitwise identical to the
// monolith's: ShardBlocks.BlockRow and Oracle.Row fill rows through the
// same BlockAPSP.row loop over the same bytes, and both hand them to the
// one stitch kernel (stitch.go).
//
// Sections ("meta" first, the rest in fixed order):
//
//	meta    shard format version, plan epoch, shard id / count, dims, flags
//	graph   the original graph's edge array
//	bcc     per-component edge-ID lists + articulation flags
//	owned   one flag per block: does this shard hold its tables
//	blocks  for each owned block, ascending: S^r table

// shardFormatVersion is the version of the shard snapshot payload layout,
// checked independently of the container's own version.
const shardFormatVersion = 2

// ShardMeta identifies one shard's slice of a plan: which plan epoch the
// tables were carved under, and which shard of how many this is. The
// frontend refuses to stitch rows from a shard whose epoch differs from
// its manifest's.
type ShardMeta struct {
	Epoch     uint64
	Shard     int32
	NumShards int32
}

// WriteShardSnapshot serialises the slice of the oracle owned by one
// shard: the graph and BCC partition in full, plus the S^r tables of
// exactly the blocks with owned[b] == true.
func (o *Oracle) WriteShardSnapshot(w io.Writer, meta ShardMeta, owned []bool) (int64, error) {
	if len(owned) != len(o.Blocks) {
		return 0, fmt.Errorf("apsp: %d ownership flags for %d blocks", len(owned), len(o.Blocks))
	}
	if meta.Shard < 0 || meta.NumShards < 1 || meta.Shard >= meta.NumShards {
		return 0, fmt.Errorf("apsp: shard %d of %d out of range", meta.Shard, meta.NumShards)
	}
	sw := snapshot.NewWriter()

	md := sw.Section("meta")
	md.U32(shardFormatVersion)
	md.U64(meta.Epoch)
	md.I32(meta.Shard)
	md.I32(meta.NumShards)
	md.U64(uint64(o.G.NumVertices()))
	md.U64(uint64(len(o.Blocks)))
	md.U64(uint64(o.numA))
	md.U32(0) // flags

	o.G.EncodeSnapshot(sw.Section("graph"))

	o.encodeDecomposition(sw.Section("bcc"))

	sw.Section("owned").Bools(owned)

	bl := sw.Section("blocks")
	for bi, blk := range o.Blocks {
		if !owned[bi] {
			continue
		}
		EncodeTable(bl, blk.Ear.SR)
	}

	return sw.WriteTo(w)
}

// ShardBlocks is the serving state decoded from a shard snapshot: an
// oracle assembled exactly as the monolith's, with ear tables resident
// only for owned blocks and no AP table. It answers in-block distance
// rows (BlockRow) for the internal row RPC; it cannot answer whole-graph
// queries — stitching across blocks is the frontend's job.
type ShardBlocks struct {
	meta   ShardMeta
	o      *Oracle // Blocks[b].Ear nil for blocks this shard does not own; A absent
	owned  []bool
	ownedN int
}

// Meta returns the shard identity the snapshot was carved under.
func (s *ShardBlocks) Meta() ShardMeta { return s.meta }

// NumVertices returns the full graph's vertex count.
func (s *ShardBlocks) NumVertices() int { return s.o.G.NumVertices() }

// NumEdges returns the full graph's edge count.
func (s *ShardBlocks) NumEdges() int { return s.o.G.NumEdges() }

// NumBlocks returns the total block count of the plan (owned or not).
func (s *ShardBlocks) NumBlocks() int { return len(s.o.Blocks) }

// OwnedBlocks returns how many blocks this shard holds tables for.
func (s *ShardBlocks) OwnedBlocks() int { return s.ownedN }

// BlockLen returns the vertex count of block b (its row length), or 0
// for an out-of-range block.
func (s *ShardBlocks) BlockLen(b int32) int {
	if b < 0 || int(b) >= len(s.o.Blocks) {
		return 0
	}
	return len(s.o.Blocks[b].Sub.ToParentVertex)
}

// ErrNotOwned reports a BlockRow request for a block whose tables live
// on another shard — a routing bug on the caller's side, or a stale
// shard map.
var ErrNotOwned = fmt.Errorf("apsp: block not owned by this shard")

// BlockRow writes the in-block distance row d_b(src, v) for every vertex
// v of block b, in the block's ToParentVertex order, into out (which
// must hold exactly BlockLen(b) entries). src is a parent-graph vertex
// ID; a src outside the block yields an all-Inf row, mirroring
// QueryParent. The values are the exact bytes the monolith oracle
// stitches its own rows from.
func (s *ShardBlocks) BlockRow(b int32, src int32, out []graph.Weight) error {
	if b < 0 || int(b) >= len(s.o.Blocks) {
		return fmt.Errorf("apsp: block %d of %d out of range", b, len(s.o.Blocks))
	}
	if !s.owned[b] {
		return fmt.Errorf("%w: block %d on shard %d", ErrNotOwned, b, s.meta.Shard)
	}
	blk := s.o.Blocks[b]
	if len(out) != len(blk.Sub.ToParentVertex) {
		return fmt.Errorf("apsp: block %d row has %d vertices, buffer holds %d",
			b, len(blk.Sub.ToParentVertex), len(out))
	}
	blk.row(src, out)
	return nil
}

// ReadShardSnapshot restores a shard's serving state from a snapshot
// written by WriteShardSnapshot. Corrupt, truncated, or version-skewed
// input is rejected with an error wrapping one of snapshot's typed
// sentinels; it never panics on hostile bytes.
func ReadShardSnapshot(r io.Reader) (s *ShardBlocks, err error) {
	var sr *snapshot.Reader
	defer func() {
		if rec := recover(); rec != nil {
			err = snapshot.Corruptf("apsp: shard snapshot decode panic: %v", rec)
		}
		if err != nil && sr != nil {
			s, err = nil, sr.Close(err)
		}
	}()
	if sr, err = snapshot.NewReader(r); err != nil {
		return nil, err
	}

	md := sr.Section("meta")
	md.Version("apsp: shard snapshot", shardFormatVersion)
	meta := ShardMeta{Epoch: md.U64(), Shard: md.I32(), NumShards: md.I32()}
	n := md.U64()
	numBlocks := md.U64()
	numA := md.U64()
	md.Reserved("shard snapshot flags")
	if err := md.Finish(); err != nil {
		return nil, err
	}
	if meta.Shard < 0 || meta.NumShards < 1 || meta.Shard >= meta.NumShards {
		return nil, snapshot.Corruptf("apsp: shard %d of %d out of range", meta.Shard, meta.NumShards)
	}

	g, dec, bct, err := decodeStructure(sr, n, numBlocks, numA)
	if err != nil {
		return nil, err
	}

	od := sr.Section("owned")
	owned := od.Bools()
	if err := od.Err(); err != nil {
		return nil, err
	}
	if uint64(len(owned)) != numBlocks {
		return nil, snapshot.Corruptf("apsp: %d ownership flags for %d blocks", len(owned), numBlocks)
	}
	if err := od.Finish(); err != nil {
		return nil, err
	}

	s = &ShardBlocks{meta: meta, owned: owned}
	bd := sr.Section("blocks")
	// Unowned blocks are assembled too, just not resident: the shared
	// vertex index spans every block, because BlockRow needs src lookup to
	// mirror QueryParent exactly.
	s.o, err = assemble(context.Background(), g, dec, bct, nil, 1, func(bi int, sub *graph.Subgraph) (*EarAPSP, error) {
		if !owned[bi] {
			return nil, nil
		}
		s.ownedN++
		return decodeBlock(bd, sub, bi)
	})
	if err != nil {
		return nil, err
	}
	if err := bd.Finish(); err != nil {
		return nil, err
	}
	return s, nil
}
