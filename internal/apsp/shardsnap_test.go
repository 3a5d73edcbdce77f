package apsp

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/snapshot"
)

// sealShard hand-writes a shard snapshot the way WriteShardSnapshot does,
// except that the owned section (written by the caller's function) and
// the set of blocks whose tables are encoded are the caller's — checksum-valid containers a real
// planner never emits.
func sealShard(t testing.TB, o *Oracle, owned func(*snapshot.Encoder), encoded []bool) []byte {
	t.Helper()
	sw := snapshot.NewWriter()
	md := sw.Section("meta")
	md.U32(shardFormatVersion)
	md.U64(7) // epoch
	md.I32(0)
	md.I32(2)
	md.U64(uint64(o.G.NumVertices()))
	md.U64(uint64(len(o.Blocks)))
	md.U64(uint64(o.numA))
	md.U32(0)
	o.G.EncodeSnapshot(sw.Section("graph"))
	o.encodeDecomposition(sw.Section("bcc"))
	owned(sw.Section("owned"))
	bl := sw.Section("blocks")
	for bi, blk := range o.Blocks {
		if encoded[bi] {
			blk.Ear.Red.EncodeSnapshot(bl)
			EncodeTable(bl, false, blk.Ear.SR, nil)
		}
	}
	var buf bytes.Buffer
	if _, err := sw.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadShardSnapshot: a shard snapshot is rejected with a typed error,
// or yields serving state that answers BlockRow for every owned block
// without panicking and refuses every other block with ErrNotOwned. It
// exercises the decodeStructure + assemble path ReadOracle shares.
func FuzzReadShardSnapshot(f *testing.F) {
	cfg := gen.Config{MaxWeight: 7}
	rng := gen.NewRNG(0x5ca1ab1e)
	chain := gen.BridgeChain(4, 4, cfg, rng)
	blocks := gen.ChainBlocks([]*graph.Graph{
		gen.CycleNecklace(3, 3, cfg, rng), gen.CycleNecklace(5, 3, cfg, rng),
	}, cfg, rng)
	for _, g := range []*graph.Graph{chain, blocks} {
		for _, compact := range []bool{false, true} {
			o, err := NewOracleOpts(context.Background(), g, Options{Compact32: compact})
			if err != nil {
				f.Fatal(err)
			}
			owned := make([]bool, len(o.Blocks))
			for bi := range owned {
				owned[bi] = bi%2 == 0
			}
			var buf bytes.Buffer
			if _, err := o.WriteShardSnapshot(&buf, ShardMeta{Epoch: 7, Shard: 0, NumShards: 2}, owned); err != nil {
				f.Fatal(err)
			}
			f.Add(buf.Bytes())
			f.Add(buf.Bytes()[:buf.Len()/2])
		}
	}
	f.Add([]byte(snapshot.Magic))

	o := NewOracle(chain)
	all := make([]bool, len(o.Blocks))
	for bi := range all {
		all[bi] = true
	}
	first := make([]bool, len(o.Blocks))
	first[0] = true
	flags := func(s []bool) func(*snapshot.Encoder) {
		return func(e *snapshot.Encoder) { e.Bools(s) }
	}
	for _, hostile := range [][]byte{
		sealShard(f, o, flags(all[1:]), all), // ownership vector one flag short
		sealShard(f, o, flags(all), first),   // claims every block, encodes one
		sealShard(f, o, flags(first), all),   // claims one block, encodes every
		// A flag count whose rounding to bytes wraps to 0 (see the same
		// seed in hostileSnapshots).
		sealShard(f, o, func(e *snapshot.Encoder) { e.U64(^uint64(0)) }, all),
	} {
		if _, err := ReadShardSnapshot(bytes.NewReader(hostile)); !errors.Is(err, snapshot.ErrCorrupt) {
			f.Fatalf("hostile seed accepted: err = %v", err)
		}
		f.Add(hostile)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadShardSnapshot(bytes.NewReader(data))
		if err != nil {
			if !typedSnapshotErr(err) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		n := int32(s.NumVertices())
		for b := int32(0); b < int32(s.NumBlocks()); b++ {
			row := make([]graph.Weight, s.BlockLen(b))
			for src := int32(0); src < n && src < 64; src++ {
				err := s.BlockRow(b, src, row)
				if s.owned[b] && err != nil {
					t.Fatalf("BlockRow(%d, %d) on an owned block: %v", b, src, err)
				}
				if !s.owned[b] && !errors.Is(err, ErrNotOwned) {
					t.Fatalf("BlockRow(%d, %d) on an unowned block: err = %v, want ErrNotOwned", b, src, err)
				}
			}
		}
	})
}
