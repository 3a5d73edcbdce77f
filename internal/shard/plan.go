package shard

import (
	"fmt"
	"io"

	"repro/internal/apsp"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/snapshot"
)

// Plan is the cluster's source of truth: which shard owns each block of
// the block-cut forest, plus the boundary state the frontend needs to
// stitch per-block rows into whole-graph rows. That state is an
// *apsp.Oracle without block tables — the graph, its BCC partition, the
// block-cut forest assembled from them as any oracle's is, and the
// articulation-point table A — so the pair and row kernels RemoteSource
// runs on it are the monolith's methods over the monolith's topology by
// construction. The S^r tables live only in the per-shard snapshots.
//
// A Plan answers no distance queries by itself; it is the routing map
// (BlockShard) plus the oracle the kernels run on, unexported so that a
// table-less oracle is never queried outside this package. Fields are
// read-only after PlanShards/ReadPlan.
type Plan struct {
	// Epoch identifies this plan's generation. Shard snapshots carved
	// under the plan carry the same epoch, the row RPC validates it per
	// request, and a mismatch is a deployment skew (ErrEpochMismatch),
	// never silently stitched. Non-zero: a CRC-64 of the plan content,
	// so re-planning the same oracle the same way reproduces the same
	// epoch, and two different plans do not share one.
	Epoch uint64
	// NumShards is how many shards the plan assigns blocks across.
	NumShards int32
	// NumVertices is the full graph's vertex count n.
	NumVertices int
	// BlockOf maps each vertex to a block containing it (-1 for none):
	// the oracle's bcc.BlockCutTree.BlockOf, the home block the stitch
	// kernel routes a source by.
	BlockOf []int32
	// BlockShard assigns each block to its owning shard.
	BlockShard []int32

	o *apsp.Oracle // the monolith (PlanShards) or the manifest's table-less oracle (ReadPlan)
}

// newPlan wraps o and its block → shard assignment.
func newPlan(o *apsp.Oracle, epoch uint64, numShards int32, assign []int32) *Plan {
	return &Plan{Epoch: epoch, NumShards: numShards, NumVertices: o.NumVertices(),
		BlockOf: o.BCT.BlockOf, BlockShard: assign, o: o}
}

// NumBlocks returns the block count of the plan.
func (p *Plan) NumBlocks() int { return len(p.BlockShard) }

// OwnedMask returns the per-block ownership flags for one shard, in the
// form apsp.WriteShardSnapshot consumes.
func (p *Plan) OwnedMask(shard int32) []bool {
	owned := make([]bool, len(p.BlockShard))
	for b, s := range p.BlockShard {
		owned[b] = s == shard
	}
	return owned
}

// ShardBlockCount returns how many blocks the plan assigns to shard.
func (p *Plan) ShardBlockCount(shard int32) int {
	n := 0
	for _, s := range p.BlockShard {
		if s == shard {
			n++
		}
	}
	return n
}

// PlanOptions configures PlanShards.
type PlanOptions struct {
	// Shards is the shard count; it must be at least 1. More shards than
	// blocks leaves the surplus shards empty.
	Shards int
}

// PlanShards cuts a built oracle into a shard plan: blocks are assigned
// to shards by weight-balanced partitioning of the quotient graph (one
// vertex per block, edges where blocks share an articulation point), so
// each shard carries a near-equal share of table memory and forest
// neighbours tend to co-locate. The plan holds o itself (its WriteTo
// writes o without block tables); carve the per-shard table snapshots
// with o.WriteShardSnapshot(w, meta, plan.OwnedMask(s)).
func PlanShards(o *apsp.Oracle, opts PlanOptions) (*Plan, error) {
	if opts.Shards < 1 {
		return nil, fmt.Errorf("shard: plan needs at least 1 shard, got %d", opts.Shards)
	}
	numB := len(o.Blocks)

	// Serving cost of a block ≈ its resident table (nr²) plus its row
	// length; balance that, not the block count, so one giant biconnected
	// component cannot dominate a shard.
	weights := make([]int64, numB)
	for b, blk := range o.Blocks {
		nr := int64(blk.Ear.Red.R.NumVertices())
		weights[b] = nr*nr + int64(len(blk.Sub.ToParentVertex))
	}

	// Quotient graph over blocks: for each AP, path-connect the blocks
	// sharing it (a path, not a clique — same connectivity, linear size).
	// The partitioner balances it in 8 boundary-refinement passes.
	qb := graph.NewBuilder(numB)
	for j := range o.BCT.CutVertices {
		bs := o.BCT.CutBlocks[j]
		for i := 1; i < len(bs); i++ {
			qb.AddEdge(bs[i-1], bs[i], 1)
		}
	}
	assign := partition.PartitionWeighted(qb.Build(), opts.Shards, 8, weights)

	// The epoch hashes the manifest written under epoch 0, so identical
	// plans agree on an epoch without coordination; it is never 0, the
	// value a reader refuses.
	p := newPlan(o, 0, int32(opts.Shards), assign)
	var h snapshot.Checksum
	if _, err := p.WriteTo(&h); err != nil {
		return nil, err
	}
	p.Epoch = max(h.Sum64(), 1)
	return p, nil
}

// WriteTo serialises the plan manifest: the oracle snapshot's container
// layout with the plan's cluster section and no block tables (see
// apsp.WritePlan).
func (p *Plan) WriteTo(w io.Writer) (int64, error) {
	return p.o.WritePlan(w, p.Epoch, p.NumShards, p.BlockShard)
}

// ReadPlan restores a plan manifest written by WriteTo: apsp.ReadPlan
// loads the table-less oracle, assembled as every oracle is, and the
// cluster section it holds. Corrupt, truncated, version-skewed or
// wrong-kind input is rejected with an error wrapping one of snapshot's
// typed sentinels; it never panics on hostile bytes.
func ReadPlan(r io.Reader) (*Plan, error) {
	o, c, err := apsp.ReadPlan(r)
	if err != nil {
		return nil, err
	}
	return newPlan(o, c.Epoch, c.NumShards, c.Assign), nil
}
