package apsp

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/bcc"
	"repro/internal/ear"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/snapshot"
)

// recordedPhases lists, sorted and space-separated, the phases o's
// BuildPhases recorded — a zero-length phase included.
func recordedPhases(t *testing.T, o *Oracle) string {
	t.Helper()
	var m map[string]int64
	if err := json.Unmarshal([]byte(o.BuildPhases.String()), &m); err != nil {
		t.Fatalf("BuildPhases %s: %v", o.BuildPhases, err)
	}
	var names []string
	for k := range m {
		names = append(names, strings.TrimSuffix(k, "_us"))
	}
	sort.Strings(names)
	return strings.Join(names, " ")
}

// snapshotOf serialises o and returns the raw container bytes.
func snapshotOf(t *testing.T, o *Oracle) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := o.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

func TestSnapshotRoundTripIdentical(t *testing.T) {
	for name, g := range testGraphs(t) {
		o := NewOracle(g)
		data := snapshotOf(t, o)

		if got := recordedPhases(t, o); got != "aptable bcc blocks forest" {
			t.Fatalf("%s: a build recorded phases %q", name, got)
		}
		loaded, err := ReadOracle(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: ReadOracle: %v", name, err)
		}
		if got := recordedPhases(t, loaded); got != "snapshot.load" {
			t.Fatalf("%s: ReadOracle recorded phases %q, want only snapshot.load: a load runs no build", name, got)
		}

		n := int32(g.NumVertices())
		for u := int32(0); u < n; u++ {
			for v := int32(0); v < n; v++ {
				a, b := o.Query(u, v), loaded.Query(u, v)
				if a != b { // bit-identical, including Inf
					t.Fatalf("%s: loaded d(%d,%d) = %v, built = %v", name, u, v, b, a)
				}
			}
		}
		// Paths must reconstruct over the loaded structure too.
		checkPaths(t, g, "snapshot/"+name, loaded.Query, loaded.Path)
		if loaded.Relaxations != o.Relaxations {
			t.Errorf("%s: relaxations %d vs %d", name, loaded.Relaxations, o.Relaxations)
		}
		if loaded.NumArticulation() != o.NumArticulation() {
			t.Errorf("%s: numA %d vs %d", name, loaded.NumArticulation(), o.NumArticulation())
		}
		if m1, m2 := loaded.Memory(), o.Memory(); m1 != m2 {
			t.Errorf("%s: memory plan %+v vs %+v", name, m1, m2)
		}
	}
}

func TestSnapshotRoundTripEmptyGraph(t *testing.T) {
	o := NewOracle(graph.NewBuilder(0).Build())
	loaded, err := ReadOracle(bytes.NewReader(snapshotOf(t, o)))
	if err != nil {
		t.Fatalf("ReadOracle: %v", err)
	}
	if got := loaded.Query(0, 0); got != Inf {
		t.Fatalf("empty-graph query = %v, want Inf", got)
	}
}

func TestSnapshotLoadRecordsMetrics(t *testing.T) {
	o := NewOracle(graph.NewBuilder(1).Build())
	loaded, err := ReadOracle(bytes.NewReader(snapshotOf(t, o)))
	if err != nil {
		t.Fatalf("ReadOracle: %v", err)
	}
	if got := recordedPhases(t, loaded); got != "snapshot.load" {
		t.Errorf("loaded oracle records phases %q, want only snapshot.load", got)
	}
	if loaded.BuildPhases.Get("snapshot.load") <= 0 {
		t.Errorf("loaded oracle records no snapshot.load phase")
	}
	for _, phase := range []string{"bcc", "blocks", "forest", "aptable"} {
		if loaded.BuildPhases.Get(phase) != 0 {
			t.Errorf("loaded oracle records build phase %q", phase)
		}
	}
}

func TestSnapshotVersionSkew(t *testing.T) {
	w := snapshot.NewWriter()
	w.Section("meta").U32(formatVersion + 7)
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadOracle(&buf); !errors.Is(err, snapshot.ErrVersionSkew) {
		t.Fatalf("err = %v, want ErrVersionSkew", err)
	}
}

// asKind is a table writer behind kind word k with delta entries more
// than the table holds: the first -delta dropped, or delta zeros added.
// Kinds 2, 3 and 4 write the entries as float32, uint8 and uint16, any
// other kind as float64. Kind 0 was v4's square and kind 5 no release
// wrote; a dropped or added entry is any kind's wrong length.
func asKind(k uint32, delta int) func(*snapshot.Encoder, table) {
	return func(e *snapshot.Encoder, t table) {
		d := entries(t)
		if delta < 0 {
			d = d[min(-delta, len(d)):]
		}
		d = append(d, make([]graph.Weight, max(delta, 0))...)
		e.U32(k)
		switch k {
		case kind32:
			snapshot.AppendTable(e, convert[float32](d))
		case kind8:
			snapshot.AppendTable(e, convert[uint8](d))
		case kind16:
			snapshot.AppendTable(e, convert[uint16](d))
		default:
			e.F64s(d)
		}
	}
}

// convert is d at type T, entry by entry.
func convert[T snapshot.Entry](d []graph.Weight) []T {
	out := make([]T, len(d))
	for i, v := range d {
		out[i] = T(v)
	}
	return out
}

// asVersion returns a copy of data, a container whose first section is
// meta, with meta's payload version word set to v and the section's
// checksum recomputed: a file of v's writer, if its layout was this one.
func asVersion(t testing.TB, data []byte, v uint32) []byte {
	out := slices.Clone(data)
	le := binary.LittleEndian
	ent := out[snapshot.Overhead(0):] // section table entry 0: name, offset, length, checksum
	if string(bytes.TrimRight(ent[:8], "\x00")) != "meta" {
		t.Fatalf("first section %q, want meta", ent[:8])
	}
	off, n := le.Uint64(ent[8:]), le.Uint64(ent[16:])
	le.PutUint32(out[off:], v)
	var sum snapshot.Checksum
	sum.Write(out[off : off+n])
	le.PutUint64(ent[24:], sum.Sum64())
	return out
}

// prevFiles are o's oracle snapshot, shard snapshot and plan manifest as
// payload v7 wrote them: this layout with every table float64 (kind 1,
// which v7 wrote where float32 did not hold an entry), under version
// word 7. Each reader must refuse its kind as version skew.
func prevFiles(t testing.TB, o *Oracle) (oracle, shard, plan []byte) {
	oracle, shard, plan = clusterFiles(t, widened(o))
	return asVersion(t, oracle, 7), asVersion(t, shard, 7), asVersion(t, plan, 7)
}

// reservedWords seals o's oracle snapshot, shard snapshot and plan
// manifest with a non-zero reserved word, an unknown table kind or a
// table of the wrong length: meta flag bit 0 over tables of two kinds,
// kind-0 and kind-5 tables, and tables of every narrow kind one entry
// short or long. Each reader must refuse each as corrupt.
func reservedWords(t testing.TB, o *Oracle) (oracles, shards, plans [][]byte) {
	ap := func(w func(*snapshot.Encoder, table)) func(*snapshot.Encoder) {
		return func(e *snapshot.Encoder) { w(e, o.apTab) }
	}
	k0, k2, k5 := asKind(0, 0), asKind(kind32, 0), asKind(5, 0)
	short32, short8, long8, short16, long16 := asKind(kind32, -1), asKind(kind8, -1), asKind(kind8, 1), asKind(kind16, -1), asKind(kind16, 1)
	all := make([]bool, len(o.Blocks))
	for bi := range all {
		all[bi] = true
	}
	shard := clusterSection(7, 2, 0, fill(len(o.Blocks), 0))
	plan := clusterSection(7, 2, Frontend, fill(len(o.Blocks), 0))
	oracles = [][]byte{
		sealOracle(t, o, 1, encodeTable, ap(encodeTable), nil),
		sealOracle(t, o, 1, k2, ap(k2), nil),
		sealOracle(t, o, 0, k0, ap(k0), nil),
		sealOracle(t, o, 0, k5, ap(k5), nil),
		sealOracle(t, o, 0, encodeTable, ap(k5), nil), // only the AP table
		sealOracle(t, o, 0, short32, ap(encodeTable), nil),
		sealOracle(t, o, 0, encodeTable, ap(short32), nil),
		sealOracle(t, o, 0, short8, ap(encodeTable), nil),
		sealOracle(t, o, 0, long16, ap(encodeTable), nil),
		sealOracle(t, o, 0, encodeTable, ap(long8), nil),
		sealOracle(t, o, 0, encodeTable, ap(short16), nil),
	}
	shards = [][]byte{
		sealCluster(t, o, 1, shard, all, encodeTable, nil),
		sealCluster(t, o, 0, shard, all, k0, nil),
		sealCluster(t, o, 0, shard, all, k5, nil),
		sealCluster(t, o, 0, shard, all, short32, nil),
		sealCluster(t, o, 0, shard, all, long8, nil),
		sealCluster(t, o, 0, shard, all, short16, nil),
	}
	plans = [][]byte{
		sealCluster(t, o, 1, plan, nil, nil, ap(encodeTable)),
		sealCluster(t, o, 0, plan, nil, nil, ap(k0)),
		sealCluster(t, o, 0, plan, nil, nil, ap(k5)),
		sealCluster(t, o, 0, plan, nil, nil, ap(short32)),
		sealCluster(t, o, 0, plan, nil, nil, ap(short8)),
		sealCluster(t, o, 0, plan, nil, nil, ap(long16)),
	}
	return oracles, shards, plans
}

// encodeChains writes red in the shape of the chain records payloads
// before v4 carried ahead of every block's table: the kept-vertex map, per
// chain its anchors, interior vertices and edge IDs, then the
// reduced-edge→chain map. Trivial chains, which red holds no record of,
// are left out; the reader refuses these versions before it gets here.
func encodeChains(e *snapshot.Encoder, red *ear.Reduced) {
	e.I32s(red.KeptToOrig)
	e.U64(uint64(len(red.ChainA)))
	for ci := range int32(len(red.ChainA)) {
		e.I32(red.ChainA[ci])
		e.I32(red.ChainB[ci])
		lo, hi := red.ChainStart[ci], red.ChainStart[ci+1]
		e.I32s(red.Interior[lo:hi])
		e.I32s(red.Edges[lo+ci : hi+ci+1])
	}
	e.I32s(red.EdgeChain)
}

// squareOf expands a side-n upper triangle into the n×n row-major square
// that payloads before v5 stored.
func squareOf(tri []graph.Weight, n int) []graph.Weight {
	sq := make([]graph.Weight, n*n)
	for i := range int32(n) {
		for j := range int32(n) {
			sq[int(i)*n+int(j)] = tri[triAt(i, j, n)]
		}
	}
	return sq
}

// TestOracleSnapshotRejectsV1 hand-rolls payloads in the four retired
// layouts — v1 (no meta flags, untagged float64 tables), v2 (flags and
// tagged tables), both with the stored forest and the AP graph behind the
// table, v3 (neither), each storing every block's ear reduction as chain
// records ahead of its table, and v4 (no chain records, square tables
// under kind 0) — and checks each is refused as version skew, not
// half-decoded: there is no in-place migration, a snapshot from an older
// release is rebuilt. The bcc section every retired layout also held is
// left out: meta's version word refuses the file before it is read.
func TestOracleSnapshotRejectsV1(t *testing.T) {
	o := NewOracle(testGraphs(t)["chained-blocks"])

	// The AP graph of buildAPTable, which v1 and v2 payloads carried.
	apb := graph.NewBuilder(o.numA)
	var edgeBlock []int32
	for bi := range o.Blocks {
		cuts := o.BCT.BlockCuts[bi]
		for i := range cuts {
			for j := i + 1; j < len(cuts); j++ {
				if w := o.QueryParent(int32(bi), o.BCT.CutVertices[cuts[i]], o.BCT.CutVertices[cuts[j]]); w < Inf {
					apb.AddEdge(cuts[i], cuts[j], w)
					edgeBlock = append(edgeBlock, int32(bi))
				}
			}
		}
	}
	apGraph := apb.Build()

	for _, version := range []uint32{1, 2, 3, 4} {
		table := func(e *snapshot.Encoder, f64 []graph.Weight) {
			if version >= 2 {
				e.U32(0) // table kind
			}
			e.F64s(f64)
		}
		sw := snapshot.NewWriter()
		meta := sw.Section("meta")
		meta.U32(version)
		meta.U64(uint64(o.G.NumVertices()))
		meta.U64(uint64(len(o.Blocks)))
		meta.U64(uint64(o.numA))
		meta.I64(o.Relaxations)
		if version >= 2 {
			meta.U32(0) // flags
		}
		o.G.EncodeSnapshot(sw.Section("graph"))
		bl := sw.Section("blocks")
		for _, blk := range o.Blocks {
			if version < 4 {
				encodeChains(bl, blk.Red)
			}
			table(bl, squareOf(entries(blk.sr), blk.nr))
			bl.I64(blk.Relaxations)
			if version < 4 {
				bl.U64(0) // frontier sweeps
			}
		}
		if version < 3 {
			fe := sw.Section("forest")
			fe.I32s(o.nodeParent)
			fe.I32s(o.nodeDepth)
			fe.I32s(o.nodeRoot)
		}
		ae := sw.Section("aptable")
		table(ae, squareOf(entries(o.apTab), o.numA))
		if version < 3 {
			ae.U32(1)
			apGraph.EncodeSnapshot(ae)
			ae.I32s(edgeBlock)
		}
		var buf bytes.Buffer
		if _, err := sw.WriteTo(&buf); err != nil {
			t.Fatalf("write v%d: %v", version, err)
		}

		if _, err := ReadOracle(&buf); !errors.Is(err, snapshot.ErrVersionSkew) {
			t.Fatalf("read v%d: err = %v, want ErrVersionSkew", version, err)
		}
	}
}

// TestSnapshotCorruptionTyped flips bits and truncates at many offsets; every
// mutation must produce a typed error, and none may panic (ReadOracle's
// contract for hostile input).
func TestSnapshotCorruptionTyped(t *testing.T) {
	g := testGraphs(t)["chained-blocks"]
	data := snapshotOf(t, NewOracle(g))

	for pos := 0; pos < len(data); pos += 37 {
		for _, mask := range []byte{0x01, 0x80} {
			mut := append([]byte(nil), data...)
			mut[pos] ^= mask
			if _, err := ReadOracle(bytes.NewReader(mut)); err != nil && !typedSnapshotErr(err) {
				t.Fatalf("flip %#x at %d: untyped error %v", mask, pos, err)
			}
			// err == nil can only mean the flip landed in slack the checksum
			// does not cover; the container has none, so treat it as a bug.
			if mut[pos] != data[pos] {
				if _, err := ReadOracle(bytes.NewReader(mut)); err == nil {
					t.Fatalf("flip %#x at %d accepted", mask, pos)
				}
			}
		}
	}
	for cut := 0; cut < len(data); cut += 41 {
		if _, err := ReadOracle(bytes.NewReader(data[:cut])); err == nil || !typedSnapshotErr(err) {
			t.Fatalf("truncation at %d: err = %v, want typed", cut, err)
		}
	}
}

// sealOracle hand-writes an oracle snapshot the way WriteTo does,
// except for the meta flags word, the block table writer, the aptable
// payload and any extra sections, which the caller supplies — the hostile
// seeds of FuzzReadOracle are checksum-valid containers a real writer
// never emits.
func sealOracle(t testing.TB, o *Oracle, flags uint32, table func(*snapshot.Encoder, table),
	apTable func(*snapshot.Encoder), extra func(*snapshot.Writer)) []byte {
	t.Helper()
	sw := snapshot.NewWriter()
	meta := sw.Section("meta")
	meta.U32(formatVersion)
	meta.U64(uint64(o.G.NumVertices()))
	meta.U64(uint64(len(o.Blocks)))
	meta.U64(uint64(o.numA))
	meta.U64(o.Dec.Sum())
	meta.I64(o.Relaxations)
	meta.U32(flags)
	o.G.EncodeSnapshot(sw.Section("graph"))
	bl := sw.Section("blocks")
	for _, blk := range o.Blocks {
		table(bl, blk.sr)
		bl.I64(blk.Relaxations)
	}
	apTable(sw.Section("aptable"))
	if extra != nil {
		extra(sw)
	}
	var buf bytes.Buffer
	if _, err := sw.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// hostileSnapshot is a checksum-valid container around an oracle's real
// graph and block tables that a writer never emits; want is the sentinel
// ReadOracle must refuse it with, nil if it must load.
type hostileSnapshot struct {
	name string
	data []byte
	want error
}

func hostileSnapshots(t testing.TB, o *Oracle) []hostileSnapshot {
	table := func(e *snapshot.Encoder) { encodeTable(e, o.apTab) }
	kind := func(k uint32, delta int) func(*snapshot.Encoder) {
		return func(e *snapshot.Encoder) { asKind(k, delta)(e, o.apTab) }
	}
	prev, _, _ := prevFiles(t, o)
	// A build that orders the blocks otherwise: the same tables under
	// the partition sum of the reversed block order.
	reversed := *o
	reversed.Dec = &bcc.Decomposition{Components: slices.Clone(o.Dec.Components)}
	slices.Reverse(reversed.Dec.Components)
	var skew bytes.Buffer
	if _, err := reversed.WriteTo(&skew); err != nil {
		t.Fatal(err)
	}
	return []hostileSnapshot{
		{"AP table one entry short",
			sealOracle(t, o, 0, encodeTable, kind(kind64, -1), nil), snapshot.ErrCorrupt},
		{"float32 S^r one entry short", sealOracle(t, o, 0, asKind(kind32, -1), table, nil), snapshot.ErrCorrupt},
		{"float32 AP table one entry short", sealOracle(t, o, 0, encodeTable, kind(kind32, -1), nil), snapshot.ErrCorrupt},
		{"uint8 S^r one entry short", sealOracle(t, o, 0, asKind(kind8, -1), table, nil), snapshot.ErrCorrupt},
		{"uint8 AP table one entry long", sealOracle(t, o, 0, encodeTable, kind(kind8, 1), nil), snapshot.ErrCorrupt},
		{"uint16 S^r one entry long", sealOracle(t, o, 0, asKind(kind16, 1), table, nil), snapshot.ErrCorrupt},
		{"uint16 AP table one entry short", sealOracle(t, o, 0, encodeTable, kind(kind16, -1), nil), snapshot.ErrCorrupt},
		{"kind-5 AP table", sealOracle(t, o, 0, encodeTable, kind(5, 0), nil), snapshot.ErrCorrupt},
		{"payload v7", prev, snapshot.ErrVersionSkew},
		// Every kind that holds the entries loads: a reader keeps the
		// type it finds, and a writer picks it.
		{"every table uint16", sealOracle(t, o, 0, asKind(kind16, 0), kind(kind16, 0), nil), nil},
		{"every table float32", sealOracle(t, o, 0, asKind(kind32, 0), kind(kind32, 0), nil), nil},
		{"every table float64", sealOracle(t, o, 0, asKind(kind64, 0), kind(kind64, 0), nil), nil},
		// Where v2 kept the AP graph.
		{"bytes behind the AP table",
			sealOracle(t, o, 0, encodeTable, func(e *snapshot.Encoder) { table(e); e.U32(0) }, nil), snapshot.ErrCorrupt},
		{"partition sum of another block order", skew.Bytes(), snapshot.ErrVersionSkew},
		// The v2 attack: a consistent rooted forest that is not the
		// block-cut tree's — a leaf block re-hung under its grandparent
		// block — passed every load check and CheckInvariants, then sent
		// PlanPair's gate() - numB to -2. Since v3 the forest is derived
		// from the validated partition, so a stored one is an unknown
		// section.
		{"stored forest with a block under a block",
			sealOracle(t, o, 0, encodeTable, table, func(sw *snapshot.Writer) {
				parent := append([]int32(nil), o.nodeParent...)
				depth := append([]int32(nil), o.nodeDepth...)
				leaf := int32(len(o.Blocks) - 1)
				parent[leaf] = parent[parent[leaf]]
				depth[leaf] = depth[parent[leaf]] + 1
				fe := sw.Section("forest")
				fe.I32s(parent)
				fe.I32s(depth)
				fe.I32s(o.nodeRoot)
			}), nil},
	}
}

// TestSnapshotHostilePayloads pins what the fuzzers' hand-sealed seeds
// are for: the aptable section is the tagged table and nothing else, a
// stored forest cannot reach navigation, the reserved flags word is zero
// and each table's kind word is 1 to 4 with the triangle's length behind
// it, or the snapshot is corrupt, and a v7 file is version skew.
func TestSnapshotHostilePayloads(t *testing.T) {
	g := testGraphs(t)["chained-blocks"]
	o := NewOracle(g)
	oracles, shards, plans := reservedWords(t, o)
	for i, data := range oracles {
		if l, err := ReadOracle(bytes.NewReader(data)); l != nil || !errors.Is(err, snapshot.ErrCorrupt) {
			t.Errorf("reserved word oracle %d: err = %v, want ErrCorrupt", i, err)
		}
	}
	for i, data := range shards {
		if s, err := ReadShardSnapshot(bytes.NewReader(data)); s != nil || !errors.Is(err, snapshot.ErrCorrupt) {
			t.Errorf("reserved word shard %d: err = %v, want ErrCorrupt", i, err)
		}
	}
	for i, data := range plans {
		if p, _, err := ReadPlan(bytes.NewReader(data)); p != nil || !errors.Is(err, snapshot.ErrCorrupt) {
			t.Errorf("reserved word plan %d: err = %v, want ErrCorrupt", i, err)
		}
	}
	_, prevShard, prevPlan := prevFiles(t, o)
	if _, err := ReadShardSnapshot(bytes.NewReader(prevShard)); !errors.Is(err, snapshot.ErrVersionSkew) {
		t.Errorf("v7 shard snapshot: err = %v, want ErrVersionSkew", err)
	}
	if _, _, err := ReadPlan(bytes.NewReader(prevPlan)); !errors.Is(err, snapshot.ErrVersionSkew) {
		t.Errorf("v7 plan manifest: err = %v, want ErrVersionSkew", err)
	}
	for _, h := range hostileSnapshots(t, o) {
		loaded, err := ReadOracle(bytes.NewReader(h.data))
		if h.want != nil {
			if !errors.Is(err, h.want) {
				t.Errorf("%s: err = %v, want %v", h.name, err, h.want)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", h.name, err)
		}
		checkPaths(t, g, h.name, loaded.Query, loaded.Path)
	}
}

// FuzzReadOracle: an oracle snapshot is rejected with a typed error, or
// yields an oracle that passes CheckInvariants and answers every distance,
// path and row without panicking. The seeds hold the shard and plan kinds
// too, so the wrong-kind refusal is mutated as well.
func FuzzReadOracle(f *testing.F) {
	cfg := gen.Config{MaxWeight: 7}
	rng := gen.NewRNG(0xc0ffee)
	chain := gen.BridgeChain(4, 4, cfg, rng)
	blocks := gen.ChainBlocks([]*graph.Graph{
		gen.CycleNecklace(3, 3, cfg, rng), gen.CycleNecklace(5, 3, cfg, rng),
	}, cfg, rng)
	for _, g := range []*graph.Graph{chain, blocks} {
		o := NewOracle(g)
		var buf bytes.Buffer
		if _, err := o.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()/2])
		_, shard, plan := clusterFiles(f, o)
		f.Add(shard)
		f.Add(plan)
		reserved, _, _ := reservedWords(f, o)
		for _, data := range reserved {
			f.Add(data)
		}
	}
	o := NewOracle(chain)
	old := chainFile(f, o)
	if _, err := ReadOracle(bytes.NewReader(old)); !errors.Is(err, snapshot.ErrVersionSkew) {
		f.Fatalf("delta-chain seed: err = %v, want ErrVersionSkew", err)
	}
	f.Add(old)
	f.Add([]byte(snapshot.Magic))

	for _, h := range hostileSnapshots(f, o) {
		f.Add(h.data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		o, err := ReadOracle(bytes.NewReader(data))
		if err != nil {
			if !typedSnapshotErr(err) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		if err := o.CheckInvariants(); err != nil {
			t.Fatalf("accepted oracle fails its invariants: %v", err)
		}
		n := int32(o.NumVertices())
		row := make([]graph.Weight, n)
		for u := int32(0); u < n && u < 64; u++ {
			if _, err := o.RowChecked(u, row); err != nil {
				t.Fatalf("RowChecked(%d): %v", u, err)
			}
			for v := int32(0); v < n && v < 64; v++ {
				if _, err := o.QueryChecked(u, v); err != nil {
					t.Fatalf("QueryChecked(%d,%d): %v", u, v, err)
				}
				if _, err := o.PathChecked(u, v); err != nil && !errors.Is(err, ErrReconstruction) {
					t.Fatalf("PathChecked(%d,%d): %v", u, v, err)
				}
			}
		}
	})
}
