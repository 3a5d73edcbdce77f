package apsp

import (
	"fmt"
	"io"

	"repro/internal/graph"
)

// Shard snapshots: the per-process slice of one oracle that a shard
// daemon serves, in the oracle snapshot's layout (snapshot.go) with a
// cluster section, only the owned blocks' S^r tables and no A. The tables
// are the built oracle's bytes, so ShardBlocks.BlockRow and Oracle.Row
// fill rows through the same BlockAPSP.row loop over the same bytes, and
// both hand them to the one stitch kernel (stitch.go).

// WriteShardSnapshot serialises the slice of the oracle owned by one
// shard: the graph and BCC partition in full, plus the S^r tables of
// exactly the blocks with owned[b] == true.
func (o *Oracle) WriteShardSnapshot(w io.Writer, meta ShardMeta, owned []bool) (int64, error) {
	if len(owned) != len(o.Blocks) {
		return 0, fmt.Errorf("apsp: %d ownership flags for %d blocks", len(owned), len(o.Blocks))
	}
	if meta.Shard < 0 || meta.Epoch == 0 {
		return 0, fmt.Errorf("apsp: shard %d of %d under plan epoch %d", meta.Shard, meta.NumShards, meta.Epoch)
	}
	c := &Cluster{ShardMeta: meta, Assign: make([]int32, len(owned))}
	for b, ok := range owned {
		c.Assign[b] = -1
		if ok {
			c.Assign[b] = meta.Shard
		}
	}
	return o.write(w, c)
}

// ShardBlocks is the serving state decoded from a shard snapshot: an
// oracle assembled exactly as the monolith's, with ear tables resident
// only for owned blocks and no AP table. It answers in-block distance
// rows (BlockRow) for the internal row RPC; it cannot answer whole-graph
// queries — stitching across blocks is the frontend's job.
type ShardBlocks struct {
	meta   ShardMeta
	o      *Oracle // Blocks[b].Ear nil for blocks this shard does not own; A absent
	ownedN int
}

// Meta returns the shard identity the snapshot was carved under.
func (s *ShardBlocks) Meta() ShardMeta { return s.meta }

// NumVertices returns the full graph's vertex count.
func (s *ShardBlocks) NumVertices() int { return s.o.G.NumVertices() }

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
	if s.o.Blocks[b].Ear == nil {
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
// written by WriteShardSnapshot. Errors are typed as ReadOracle's; it
// never panics on hostile bytes. Unowned blocks are assembled too, just
// not resident: the shared vertex index spans every block, because
// BlockRow needs src lookup to mirror QueryParent exactly.
func ReadShardSnapshot(r io.Reader) (*ShardBlocks, error) {
	o, c, err := read(r, shardKind)
	if err != nil {
		return nil, err
	}
	s := &ShardBlocks{meta: c.ShardMeta, o: o}
	for _, blk := range o.Blocks {
		if blk.Ear != nil {
			s.ownedN++
		}
	}
	return s, nil
}
