package apsp

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/snapshot"
)

// sealCluster hand-writes a shard snapshot or plan manifest of o the way
// write does, except that the meta flags word, the cluster section, the
// blocks whose tables are encoded and their table writer, and the aptable
// section are the caller's: a nil encoded writes an empty blocks section,
// a nil apTable no aptable section. The results are checksum-valid containers a
// real planner never emits.
func sealCluster(t testing.TB, o *Oracle, flags uint32, cluster func(*snapshot.Encoder), encoded []bool,
	table func(*snapshot.Encoder, table), apTable func(*snapshot.Encoder)) []byte {
	t.Helper()
	sw := snapshot.NewWriter()
	md := sw.Section("meta")
	md.U32(formatVersion)
	md.U64(uint64(o.G.NumVertices()))
	md.U64(uint64(len(o.Blocks)))
	md.U64(uint64(o.numA))
	md.U64(o.Dec.Sum())
	md.I64(o.Relaxations)
	md.U32(flags)
	cluster(sw.Section("cluster"))
	o.G.EncodeSnapshot(sw.Section("graph"))
	bl := sw.Section("blocks")
	for bi, blk := range o.Blocks {
		if encoded != nil && encoded[bi] {
			table(bl, blk.sr)
			bl.I64(blk.Relaxations)
		}
	}
	if apTable != nil {
		apTable(sw.Section("aptable"))
	}
	var buf bytes.Buffer
	if _, err := sw.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// clusterSection returns a writer of a cluster section with the given
// fields.
func clusterSection(epoch uint64, numShards, shard int32, assign []int32) func(*snapshot.Encoder) {
	return func(e *snapshot.Encoder) {
		e.U64(epoch)
		e.I32(numShards)
		e.I32(shard)
		e.I32s(assign)
	}
}

// fill returns n copies of v.
func fill(n int, v int32) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// clusterFiles writes o as each of the three kinds: the oracle snapshot,
// shard 0 of 2 owning the even blocks, and a 2-shard plan manifest.
func clusterFiles(t testing.TB, o *Oracle) (oracle, shard, plan []byte) {
	t.Helper()
	owned := make([]bool, len(o.Blocks))
	assign := make([]int32, len(o.Blocks))
	for bi := range owned {
		owned[bi] = bi%2 == 0
		assign[bi] = int32(bi % 2)
	}
	var ob, sb, pb bytes.Buffer
	if _, err := o.WriteTo(&ob); err != nil {
		t.Fatal(err)
	}
	if _, err := o.WriteShardSnapshot(&sb, ShardMeta{Epoch: 7, Shard: 0, NumShards: 2}, owned); err != nil {
		t.Fatal(err)
	}
	if _, err := o.WritePlan(&pb, 7, 2, assign); err != nil {
		t.Fatal(err)
	}
	return ob.Bytes(), sb.Bytes(), pb.Bytes()
}

// TestShardSnapshotRejectsV1 hand-rolls payloads of the retired shard
// layouts — v1 (each owned block's ear reduction as chain records ahead
// of its table) and v2 (tables only), both with their own meta — and
// checks each is refused as version skew: a shard carved by an older
// planner is carved again. Their bcc and "owned" flag sections are left
// out: meta's version word refuses the file before either is read.
func TestShardSnapshotRejectsV1(t *testing.T) {
	o := NewOracle(testGraphs(t)["chained-blocks"])
	for _, version := range []uint32{1, 2} {
		sw := snapshot.NewWriter()
		md := sw.Section("meta")
		md.U32(version)
		md.U64(7) // epoch
		md.I32(0)
		md.I32(1)
		md.U64(uint64(o.G.NumVertices()))
		md.U64(uint64(len(o.Blocks)))
		md.U64(uint64(o.numA))
		md.U32(0) // flags
		o.G.EncodeSnapshot(sw.Section("graph"))
		bl := sw.Section("blocks")
		for _, blk := range o.Blocks {
			if version == 1 {
				encodeChains(bl, blk.Red)
			}
			encodeTable(bl, blk.sr)
		}
		var buf bytes.Buffer
		if _, err := sw.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadShardSnapshot(&buf); !errors.Is(err, snapshot.ErrVersionSkew) {
			t.Errorf("read shard v%d: err = %v, want ErrVersionSkew", version, err)
		}
	}
}

// TestPlanManifestRejectsV1 hand-rolls the retired plan manifest (sections
// plan, assign, bct, aptable: a hand-encoded block-cut tree beside A) and
// checks it is refused as version skew, not as a missing meta section.
func TestPlanManifestRejectsV1(t *testing.T) {
	o := NewOracle(testGraphs(t)["chained-blocks"])
	sw := snapshot.NewWriter()
	md := sw.Section("plan")
	md.U32(1)
	md.U64(7) // epoch
	md.I32(1)
	md.U64(uint64(o.G.NumVertices()))
	md.U64(uint64(len(o.Blocks)))
	md.U64(uint64(o.numA))
	md.U32(0) // flags
	sw.Section("assign").I32s(make([]int32, len(o.Blocks)))
	be := sw.Section("bct")
	be.I32s(o.BCT.CutVertices)
	be.I32s(o.BCT.BlockOf)
	for b := range o.Blocks {
		be.I32s(o.BCT.BlockCuts[b])
		be.I32s(o.BCT.BlockVerts[b])
	}
	encodeTable(sw.Section("aptable"), o.apTab)
	var buf bytes.Buffer
	if _, err := sw.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadPlan(&buf); !errors.Is(err, snapshot.ErrVersionSkew) {
		t.Errorf("read plan v1: err = %v, want ErrVersionSkew", err)
	}
}

// TestPartialOracleCounts: ReducedMemory and NodesRemoved count only the
// blocks an oracle holds tables for — none on a plan, the owned ones on a
// shard — instead of dereferencing the nil blocks it does not.
func TestPartialOracleCounts(t *testing.T) {
	o := NewOracle(testGraphs(t)["chained-blocks"])
	_, shard, plan := clusterFiles(t, o)
	p, _, err := ReadPlan(bytes.NewReader(plan))
	if err != nil {
		t.Fatalf("ReadPlan: %v", err)
	}
	s, err := ReadShardSnapshot(bytes.NewReader(shard))
	if err != nil {
		t.Fatalf("ReadShardSnapshot: %v", err)
	}
	for _, c := range []struct {
		kind   string
		loaded *Oracle
		holds  func(bi int) bool
	}{
		{"plan", p, func(int) bool { return false }},
		{"shard 0", s.o, func(bi int) bool { return bi%2 == 0 }},
	} {
		mem, removed := int64(len(c.loaded.AEntries())), 0
		for bi, blk := range o.Blocks {
			if c.holds(bi) {
				mem += int64(blk.sr.len())
				removed += blk.Red.NumRemoved()
			}
		}
		if got := c.loaded.ReducedMemory(); got != mem {
			t.Errorf("%s: ReducedMemory = %d, want %d", c.kind, got, mem)
		}
		if got := c.loaded.NodesRemoved(); got != removed {
			t.Errorf("%s: NodesRemoved = %d, want %d", c.kind, got, removed)
		}
	}
}

// TestPlanViewIsTheMonolithView: a plan manifest loads to an oracle whose
// block-cut tree, rooted forest, A and block vertex lists — everything
// the pair and row kernels read — are the monolith's, and whose forest
// names the same gate for every block and cut node of a tree. Both come
// out of the one BuildBlockCutTree → assemble path.
func TestPlanViewIsTheMonolithView(t *testing.T) {
	for name, g := range testGraphs(t) {
		o := NewOracle(g)
		_, _, plan := clusterFiles(t, o)
		loaded, c, err := ReadPlan(bytes.NewReader(plan))
		if err != nil {
			t.Fatalf("%s: ReadPlan: %v", name, err)
		}
		if c.Epoch != 7 || c.NumShards != 2 || c.Shard != Frontend || len(c.Assign) != len(o.Blocks) {
			t.Fatalf("%s: cluster section %+v", name, c)
		}
		for bi, blk := range loaded.Blocks {
			if blk != nil {
				t.Fatalf("%s: block %d has tables in a plan", name, bi)
			}
		}
		if !reflect.DeepEqual(loaded.BCT, o.BCT) || !reflect.DeepEqual(loaded.Forest, o.Forest) ||
			!reflect.DeepEqual(loaded.apTab, o.apTab) || loaded.numA != o.numA {
			t.Fatalf("%s: the plan's block-cut tree, forest or A differs from the monolith's", name)
		}
		numB := int32(len(o.Blocks))
		for b := int32(0); b < numB; b++ {
			for t2 := numB; t2 < numB+int32(o.numA); t2++ {
				if o.nodeRoot[b] != o.nodeRoot[t2] {
					continue
				}
				if got, want := loaded.gate(b, t2), o.gate(b, t2); got != want {
					t.Fatalf("%s: gate(%d, %d) = %d on the plan, %d on the monolith", name, b, t2, got, want)
				}
			}
		}
	}
}

// TestClusterSectionHostile: the cluster section and the plan's A are
// held to the plan they describe — epoch 0, fewer than one shard, a shard
// or assignment out of range, an assignment one block short and A of the
// wrong size are each ErrCorrupt (TestSnapshotHostilePayloads has A of the
// wrong kind and the flags word).
func TestClusterSectionHostile(t *testing.T) {
	o := NewOracle(testGraphs(t)["chained-blocks"])
	nb := len(o.Blocks)
	all := make([]bool, nb)
	for bi := range all {
		all[bi] = true
	}
	ap := func(e *snapshot.Encoder) { encodeTable(e, o.apTab) }
	plan := func(cluster func(*snapshot.Encoder), apTable func(*snapshot.Encoder)) []byte {
		return sealCluster(t, o, 0, cluster, nil, nil, apTable)
	}
	shard := func(cluster func(*snapshot.Encoder)) []byte {
		return sealCluster(t, o, 0, cluster, all, encodeTable, nil)
	}
	good := clusterSection(7, 2, Frontend, fill(nb, 1))
	if _, _, err := ReadPlan(bytes.NewReader(plan(good, ap))); err != nil {
		t.Fatalf("hand-sealed plan: %v", err)
	}
	if _, err := ReadShardSnapshot(bytes.NewReader(shard(clusterSection(7, 2, 1, fill(nb, 1))))); err != nil {
		t.Fatalf("hand-sealed shard: %v", err)
	}
	for _, h := range []struct {
		name string
		data []byte
	}{
		{"plan epoch 0", plan(clusterSection(0, 2, Frontend, fill(nb, 1)), ap)},
		{"plan of 0 shards", plan(clusterSection(7, 0, Frontend, fill(nb, 0)), ap)},
		{"plan assigning a block to shard 2 of 2", plan(clusterSection(7, 2, Frontend, fill(nb, 2)), ap)},
		{"plan assigning a block to no shard", plan(clusterSection(7, 2, Frontend, fill(nb, -1)), ap)},
		{"plan assignment one block short", plan(clusterSection(7, 2, Frontend, fill(nb-1, 1)), ap)},
		{"plan A one entry short", plan(good, func(e *snapshot.Encoder) { asKind(kind64, -1)(e, o.apTab) })},
		{"shard 2 of 2", shard(clusterSection(7, 2, 2, fill(nb, 2)))},
		{"shard of epoch 0", shard(clusterSection(0, 2, 1, fill(nb, 1)))},
		{"shard naming another shard's block", shard(clusterSection(7, 2, 1, fill(nb, 0)))},
	} {
		_, _, err := ReadPlan(bytes.NewReader(h.data))
		if strings.HasPrefix(h.name, "shard") {
			_, err = ReadShardSnapshot(bytes.NewReader(h.data))
		}
		if !errors.Is(err, snapshot.ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", h.name, err)
		}
	}
}

// FuzzReadShardSnapshot: a shard snapshot is rejected with a typed error,
// or yields serving state that answers BlockRow for every owned block
// without panicking and refuses every other block with ErrNotOwned. It
// exercises the one reader ReadOracle and ReadPlan share; the seeds hold
// the other two kinds, so the wrong-kind refusal is mutated too.
func FuzzReadShardSnapshot(f *testing.F) {
	cfg := gen.Config{MaxWeight: 7}
	rng := gen.NewRNG(0x5ca1ab1e)
	chain := gen.BridgeChain(4, 4, cfg, rng)
	blocks := gen.ChainBlocks([]*graph.Graph{
		gen.CycleNecklace(3, 3, cfg, rng), gen.CycleNecklace(5, 3, cfg, rng),
	}, cfg, rng)
	for _, g := range []*graph.Graph{chain, blocks} {
		o := NewOracle(g)
		oracle, shard, plan := clusterFiles(f, o)
		for _, data := range [][]byte{shard, shard[:len(shard)/2], oracle, plan} {
			f.Add(data)
		}
		_, reserved, _ := reservedWords(f, o)
		for _, data := range reserved {
			f.Add(data)
		}
		_, prev, _ := prevFiles(f, o)
		if _, err := ReadShardSnapshot(bytes.NewReader(prev)); !errors.Is(err, snapshot.ErrVersionSkew) {
			f.Fatalf("v7 shard snapshot: err = %v, want ErrVersionSkew", err)
		}
		f.Add(prev)
	}
	f.Add([]byte(snapshot.Magic))

	o := NewOracle(chain)
	nb := len(o.Blocks)
	all := make([]bool, nb)
	for bi := range all {
		all[bi] = true
	}
	first := make([]bool, nb)
	first[0] = true
	owner := fill(nb, 0)
	firstOnly := fill(nb, -1)
	firstOnly[0] = 0
	for _, hostile := range [][]byte{
		sealCluster(f, o, 0, clusterSection(7, 2, 0, owner[1:]), all, encodeTable, nil),                                            // assignment one block short
		sealCluster(f, o, 0, clusterSection(7, 2, 0, owner), first, encodeTable, nil),                                              // claims every block, encodes one
		sealCluster(f, o, 0, clusterSection(7, 2, 0, firstOnly), all, encodeTable, nil),                                            // claims one block, encodes every
		sealCluster(f, o, 0, func(e *snapshot.Encoder) { e.U64(7); e.I32(2); e.I32(0); e.U64(^uint64(0)) }, all, encodeTable, nil), // an assignment count past any file
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
			owned := s.o.Blocks[b] != nil
			row := make([]graph.Weight, s.BlockLen(b))
			for src := int32(0); src < n && src < 64; src++ {
				err := s.BlockRow(b, src, row)
				if owned && err != nil {
					t.Fatalf("BlockRow(%d, %d) on an owned block: %v", b, src, err)
				}
				if !owned && !errors.Is(err, ErrNotOwned) {
					t.Fatalf("BlockRow(%d, %d) on an unowned block: err = %v, want ErrNotOwned", b, src, err)
				}
			}
		}
	})
}
