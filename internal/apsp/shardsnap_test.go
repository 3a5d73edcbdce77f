package apsp

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/snapshot"
)

// sealShard hand-writes a shard snapshot the way WriteShardSnapshot does,
// except that the meta flags word, the owned section (written by the
// caller's function), the set of blocks whose tables are encoded and the
// table writer are the caller's — checksum-valid containers a real
// planner never emits.
func sealShard(t testing.TB, o *Oracle, flags uint32, owned func(*snapshot.Encoder), encoded []bool,
	table func(*snapshot.Encoder, []graph.Weight)) []byte {
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
	md.U32(flags)
	o.G.EncodeSnapshot(sw.Section("graph"))
	o.encodeDecomposition(sw.Section("bcc"))
	owned(sw.Section("owned"))
	bl := sw.Section("blocks")
	for bi, blk := range o.Blocks {
		if encoded[bi] {
			table(bl, blk.Ear.SR)
		}
	}
	var buf bytes.Buffer
	if _, err := sw.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestShardSnapshotRejectsV1 hand-rolls a complete v1 shard payload, in
// which every owned block's ear reduction precedes its table as chain
// records, and checks it is refused as version skew: a shard carved by an
// older planner is carved again.
func TestShardSnapshotRejectsV1(t *testing.T) {
	o := NewOracle(testGraphs(t)["chained-blocks"])
	sw := snapshot.NewWriter()
	md := sw.Section("meta")
	md.U32(1)
	md.U64(7) // epoch
	md.I32(0)
	md.I32(1)
	md.U64(uint64(o.G.NumVertices()))
	md.U64(uint64(len(o.Blocks)))
	md.U64(uint64(o.numA))
	md.U32(0) // flags
	o.G.EncodeSnapshot(sw.Section("graph"))
	o.encodeDecomposition(sw.Section("bcc"))
	owned := make([]bool, len(o.Blocks))
	for bi := range owned {
		owned[bi] = true
	}
	sw.Section("owned").Bools(owned)
	bl := sw.Section("blocks")
	for _, blk := range o.Blocks {
		encodeChains(bl, blk.Ear.Red)
		EncodeTable(bl, blk.Ear.SR)
	}
	var buf bytes.Buffer
	if _, err := sw.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadShardSnapshot(&buf); !errors.Is(err, snapshot.ErrVersionSkew) {
		t.Fatalf("read shard v1: err = %v, want ErrVersionSkew", err)
	}
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
		o := NewOracle(g)
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
		_, reserved := reservedWords(f, o)
		for _, data := range reserved {
			f.Add(data)
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
		sealShard(f, o, 0, flags(all[1:]), all, EncodeTable), // ownership vector one flag short
		sealShard(f, o, 0, flags(all), first, EncodeTable),   // claims every block, encodes one
		sealShard(f, o, 0, flags(first), all, EncodeTable),   // claims one block, encodes every
		// A flag count whose rounding to bytes wraps to 0 (see the same
		// seed in hostileSnapshots).
		sealShard(f, o, 0, func(e *snapshot.Encoder) { e.U64(^uint64(0)) }, all, EncodeTable),
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
