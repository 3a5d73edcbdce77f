package shard

import (
	"fmt"
	"hash/crc64"
	"io"

	"repro/internal/apsp"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/snapshot"
)

// planFormatVersion is the version of the plan manifest payload layout,
// checked independently of the container's own version.
const planFormatVersion = 1

// Plan is the cluster's source of truth: which shard owns each block of
// the block-cut forest, plus the boundary state the frontend needs to
// stitch per-block rows into whole-graph rows — the articulation-point
// table A, the forest topology, and each block's vertex list in the
// exact order shards emit row values. Everything else (graph edges, ear
// reductions, S^r tables) lives only in the per-shard snapshots.
//
// A Plan answers no distance queries by itself; it is the routing map
// (BlockShard) plus the apsp.StitchView the stitch kernel assembles rows
// over. Fields are read-only after PlanShards/ReadPlan.
type Plan struct {
	// Epoch identifies this plan's generation. Shard snapshots carved
	// under the plan carry the same epoch, the row RPC validates it per
	// request, and a mismatch is a deployment skew (ErrEpochMismatch),
	// never silently stitched. Non-zero; by default a CRC-64 of the plan
	// content, so re-planning the same oracle the same way reproduces
	// the same epoch.
	Epoch uint64
	// NumShards is how many shards the plan assigns blocks across.
	NumShards int32
	// Compact records the table precision of the oracle the plan was cut
	// from: the AP table here (and the S^r tables in the shard
	// snapshots) are float32 when set.
	Compact bool
	// NumVertices is the full graph's vertex count n.
	NumVertices int
	// CutVertices lists the articulation points by AP index, exactly as
	// in bcc.BlockCutTree.
	CutVertices []int32
	// BlockOf maps each vertex to a block containing it (-1 for none),
	// exactly as in bcc.BlockCutTree — the frontend must pick the same
	// home block for a source as the monolith's Row.
	BlockOf []int32
	// BlockCuts lists, per block, the AP indices of the cut vertices
	// lying on that block — the block-cut forest's adjacency.
	BlockCuts [][]int32
	// BlockVerts lists, per block, the block's vertices in subgraph
	// order — the order BlockRow emits row values in.
	BlockVerts [][]int32
	// BlockShard assigns each block to its owning shard.
	BlockShard []int32

	// The AP table in its stored precision (exactly one non-nil unless
	// the graph has no articulation points).
	apF64 []graph.Weight
	apF32 []float32

	// Derived at load, never serialised.
	cutIndex []int32         // vertex → AP index, -1 for regular vertices
	view     apsp.StitchView // what the stitch kernels walk; see derive
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
	// RefinePasses is the partitioner's boundary-refinement sweep count;
	// < 1 resolves to 8.
	RefinePasses int
	// Epoch overrides the plan epoch; 0 derives it from the plan content.
	Epoch uint64
}

// PlanShards cuts a built oracle into a shard plan: blocks are assigned
// to shards by weight-balanced partitioning of the quotient graph (one
// vertex per block, edges where blocks share an articulation point), so
// each shard carries a near-equal share of table memory and forest
// neighbours tend to co-locate. The plan shares the oracle's boundary
// state (AP table, forest topology, block vertex orders); carve the
// per-shard table snapshots with o.WriteShardSnapshot(w, meta,
// plan.OwnedMask(s)).
func PlanShards(o *apsp.Oracle, opts PlanOptions) (*Plan, error) {
	if opts.Shards < 1 {
		return nil, fmt.Errorf("shard: plan needs at least 1 shard, got %d", opts.Shards)
	}
	refine := opts.RefinePasses
	if refine < 1 {
		refine = 8
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
	qb := graph.NewBuilder(numB)
	for j := range o.BCT.CutVertices {
		bs := o.BCT.CutBlocks[j]
		for i := 1; i < len(bs); i++ {
			qb.AddEdge(bs[i-1], bs[i], 1)
		}
	}
	assign := partition.PartitionWeighted(qb.Build(), opts.Shards, refine, weights)

	// The oracle is immutable, so the plan shares its boundary slices.
	v := o.StitchView()
	p := &Plan{
		NumShards:   int32(opts.Shards),
		Compact:     o.Compact(),
		NumVertices: o.G.NumVertices(),
		CutVertices: v.CutVertices,
		BlockOf:     v.BlockOf,
		BlockCuts:   v.BlockCuts,
		BlockVerts:  v.BlockVerts,
		BlockShard:  assign,
		apF64:       v.A,
		apF32:       v.A32,
	}
	if err := p.derive(); err != nil {
		return nil, err
	}
	p.Epoch = opts.Epoch
	if p.Epoch == 0 {
		p.Epoch = p.contentEpoch()
	}
	return p, nil
}

// contentEpoch hashes the manifest bytes (with Epoch zeroed) so identical
// plans agree on an epoch without coordination. Never returns 0, the
// "derive me" sentinel.
func (p *Plan) contentEpoch() uint64 {
	h := crc64.New(crc64.MakeTable(crc64.ECMA))
	saved := p.Epoch
	p.Epoch = 0
	_, _ = p.WriteTo(h)
	p.Epoch = saved
	e := h.Sum64()
	if e == 0 {
		e = 1
	}
	return e
}

// WriteTo serialises the plan manifest as a checksummed EARSNAPS
// container. Sections:
//
//	plan     format version, epoch, shard count, dims, flags
//	assign   block → shard
//	bct      AP list, BlockOf, per-block cut and vertex lists
//	aptable  the a×a articulation distance table, kind-tagged
func (p *Plan) WriteTo(w io.Writer) (int64, error) {
	sw := snapshot.NewWriter()

	md := sw.Section("plan")
	md.U32(planFormatVersion)
	md.U64(p.Epoch)
	md.I32(p.NumShards)
	md.U64(uint64(p.NumVertices))
	md.U64(uint64(len(p.BlockShard)))
	md.U64(uint64(len(p.CutVertices)))
	var flags uint32
	if p.Compact {
		flags |= 1
	}
	md.U32(flags)

	sw.Section("assign").I32s(p.BlockShard)

	be := sw.Section("bct")
	be.I32s(p.CutVertices)
	be.I32s(p.BlockOf)
	for b := range p.BlockShard {
		be.I32s(p.BlockCuts[b])
		be.I32s(p.BlockVerts[b])
	}

	apsp.EncodeTable(sw.Section("aptable"), p.Compact, p.apF64, p.apF32)

	return sw.WriteTo(w)
}

// ReadPlan restores a plan manifest written by WriteTo, validating every
// cross-reference (shard ids, vertex ids, AP indices, table dimensions)
// and rebuilding the derived stitch indexes. Corrupt, truncated, or
// version-skewed input is rejected with an error wrapping one of
// snapshot's typed sentinels; it never panics on hostile bytes.
func ReadPlan(r io.Reader) (p *Plan, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			p, err = nil, snapshot.Corruptf("shard: plan decode panic: %v", rec)
		}
	}()
	sr, err := snapshot.NewReader(r)
	if err != nil {
		return nil, err
	}

	md, err := sr.Section("plan")
	if err != nil {
		return nil, err
	}
	ver := md.U32()
	if md.Err() == nil && ver != planFormatVersion {
		return nil, fmt.Errorf("shard: plan manifest format v%d, this build reads v%d: %w",
			ver, planFormatVersion, snapshot.ErrVersionSkew)
	}
	p = &Plan{Epoch: md.U64(), NumShards: md.I32()}
	n := md.U64()
	numB := md.U64()
	numA := md.U64()
	flags := md.U32()
	if err := md.Finish(); err != nil {
		return nil, err
	}
	if flags&^uint32(1) != 0 {
		return nil, snapshot.Corruptf("shard: unknown plan flags %#x", flags)
	}
	p.Compact = flags&1 != 0
	if p.Epoch == 0 {
		return nil, snapshot.Corruptf("shard: plan epoch 0")
	}
	if p.NumShards < 1 {
		return nil, snapshot.Corruptf("shard: plan has %d shards", p.NumShards)
	}
	p.NumVertices = int(n)

	ad, err := sr.Section("assign")
	if err != nil {
		return nil, err
	}
	p.BlockShard = ad.I32s()
	if err := ad.Finish(); err != nil {
		return nil, err
	}
	if uint64(len(p.BlockShard)) != numB {
		return nil, snapshot.Corruptf("shard: %d assignments for %d blocks", len(p.BlockShard), numB)
	}
	for b, s := range p.BlockShard {
		if s < 0 || s >= p.NumShards {
			return nil, snapshot.Corruptf("shard: block %d assigned to shard %d of %d", b, s, p.NumShards)
		}
	}

	bd, err := sr.Section("bct")
	if err != nil {
		return nil, err
	}
	p.CutVertices = bd.I32s()
	p.BlockOf = bd.I32s()
	p.BlockCuts = make([][]int32, numB)
	p.BlockVerts = make([][]int32, numB)
	for b := uint64(0); b < numB; b++ {
		p.BlockCuts[b] = bd.I32s()
		p.BlockVerts[b] = bd.I32s()
	}
	if err := bd.Err(); err != nil {
		return nil, err
	}
	if err := bd.Finish(); err != nil {
		return nil, err
	}
	if uint64(len(p.CutVertices)) != numA {
		return nil, snapshot.Corruptf("shard: plan says %d articulation points, manifest lists %d",
			numA, len(p.CutVertices))
	}
	if uint64(len(p.BlockOf)) != n {
		return nil, snapshot.Corruptf("shard: BlockOf covers %d of %d vertices", len(p.BlockOf), n)
	}
	for v, b := range p.BlockOf {
		if b < -1 || uint64(b) >= numB && b != -1 {
			return nil, snapshot.Corruptf("shard: vertex %d in block %d of %d", v, b, numB)
		}
	}
	for b := range p.BlockCuts {
		for _, ci := range p.BlockCuts[b] {
			if ci < 0 || uint64(ci) >= numA {
				return nil, snapshot.Corruptf("shard: block %d lists AP %d of %d", b, ci, numA)
			}
		}
		for _, v := range p.BlockVerts[b] {
			if v < 0 || uint64(v) >= n {
				return nil, snapshot.Corruptf("shard: block %d lists vertex %d of %d", b, v, n)
			}
		}
	}

	at, err := sr.Section("aptable")
	if err != nil {
		return nil, err
	}
	a := len(p.CutVertices)
	if p.apF64, p.apF32, err = apsp.DecodeTable(at, p.Compact, a*a, "plan AP table"); err != nil {
		return nil, err
	}
	if err := at.Finish(); err != nil {
		return nil, err
	}

	if err := p.derive(); err != nil {
		return nil, err
	}
	return p, nil
}

// derive builds the stitch kernel's view from the stored fields,
// validating the cross-references the kernel relies on: distinct APs,
// and each block's cut list naming exactly the APs in its vertex list —
// which is what lets the forest adjacency double as "the blocks an AP
// source lies on", as it does in the oracle's own block-cut tree.
func (p *Plan) derive() error {
	p.cutIndex = make([]int32, p.NumVertices)
	for i := range p.cutIndex {
		p.cutIndex[i] = -1
	}
	for j, v := range p.CutVertices {
		if v < 0 || int(v) >= p.NumVertices {
			return snapshot.Corruptf("shard: AP %d is vertex %d of %d", j, v, p.NumVertices)
		}
		if p.cutIndex[v] >= 0 {
			return snapshot.Corruptf("shard: vertex %d listed as AP twice", v)
		}
		p.cutIndex[v] = int32(j)
	}

	cutBlocks := make([][]int32, len(p.CutVertices))
	for b, cuts := range p.BlockCuts {
		for _, ci := range cuts {
			if bs := cutBlocks[ci]; len(bs) > 0 && bs[len(bs)-1] == int32(b) {
				return snapshot.Corruptf("shard: block %d lists cut vertex %d twice", b, p.CutVertices[ci])
			}
			cutBlocks[ci] = append(cutBlocks[ci], int32(b))
		}
		onBlock := 0
		for _, v := range p.BlockVerts[b] {
			j := p.cutIndex[v]
			if j < 0 {
				continue
			}
			if bs := cutBlocks[j]; len(bs) == 0 || bs[len(bs)-1] != int32(b) {
				return snapshot.Corruptf("shard: block %d holds AP vertex %d but does not list it as a cut", b, v)
			}
			onBlock++
		}
		if onBlock != len(cuts) {
			return snapshot.Corruptf("shard: block %d lists %d cut vertices, %d lie in its vertex list",
				b, len(cuts), onBlock)
		}
	}
	forest := apsp.BuildForest(p.BlockCuts, cutBlocks)
	p.view = apsp.StitchView{
		CutVertices: p.CutVertices,
		CutIndex:    p.cutIndex,
		BlockOf:     p.BlockOf,
		BlockCuts:   p.BlockCuts,
		CutBlocks:   cutBlocks,
		BlockVerts:  p.BlockVerts,
		Forest:      &forest,
		A:           p.apF64,
		A32:         p.apF32,
	}
	return nil
}
