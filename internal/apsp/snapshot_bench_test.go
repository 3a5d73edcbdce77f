package apsp

import (
	"bytes"
	"io"
	"runtime"
	"testing"

	"repro/internal/datasets"
	"repro/internal/snapshot"
)

// BenchmarkSnapshotRoundTrip writes the multi-block fixture's oracle as a
// snapshot and reads it back: the checksum pass on both sides, the
// borrowed-table write and the decode with its rebuild of the structure.
// CI gates its allocs/op.
func BenchmarkSnapshotRoundTrip(b *testing.B) {
	o := NewOracle(benchBlocksGraph())
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if _, err := o.WriteTo(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := ReadOracle(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

// blocksM builds the benchmark's blocks_m oracle: cond_mat_2003 at scale
// 0.08, 5.7 MB of snapshot.
func blocksM(t *testing.T) *Oracle {
	spec, err := datasets.ByName("cond_mat_2003")
	if err != nil {
		t.Fatal(err)
	}
	return NewOracleParallel(spec.Generate(0.08, 1), 2)
}

// TestWriteToBorrowsTables pins the write's "no staging copy": beyond
// what encoding the graph section takes, writing a blocks_m-sized oracle
// allocates less than a quarter of its table bytes, because every large
// table goes from the oracle to the destination as it stands — as uint8
// and uint16 (blocks_m's integral weights narrow every table) and as
// float64 (the same entries widened). The graph section is most of what
// the narrow write allocates: its tables take 0.34 MB.
func TestWriteToBorrowsTables(t *testing.T) {
	o := blocksM(t)
	allocated := func(f func()) int64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc - before.TotalAlloc)
	}
	graphAlloc := allocated(func() { o.G.EncodeSnapshot(snapshot.NewWriter().Section("graph")) })
	for _, o := range []*Oracle{o, widened(o)} {
		size, err := o.WriteTo(io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		alloc := allocated(func() { o.WriteTo(io.Discard) }) - graphAlloc
		tables, kinds := o.TableBytes()
		t.Logf("WriteTo of a %d-byte snapshot, %d table bytes %v, allocates %d bytes beyond the graph section's %d",
			size, tables, kinds, alloc, graphAlloc)
		if 4*alloc >= tables {
			t.Errorf("WriteTo of %d table bytes allocates %d bytes beyond the graph section, want < a quarter", tables, alloc)
		}
	}
}

// TestReadOracleLoadsInPlace pins the load's "into place": reading a
// blocks_m snapshot from memory allocates less than 3.2 MB beyond the
// table bytes the oracle then holds (2.84 MB when the tables were
// squares), because the container streams each section, every table is
// read straight into its final slice at the type it was packed in — a
// uint8 table into a uint8 slice, with no float64 copy — and each block's
// chains share three arrays.
func TestReadOracleLoadsInPlace(t *testing.T) {
	built := blocksM(t)
	var buf bytes.Buffer
	if _, err := built.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	o, err := ReadOracle(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	tables, kinds := o.TableBytes()
	for i, tab := range o.tables() {
		if want := built.tables()[i]; kindOf(tab) != kindOf(want) {
			t.Errorf("table %d loads as %s, packed as %s", i, kindOf(tab), kindOf(want))
		}
	}
	beyond := float64(int64(after.TotalAlloc-before.TotalAlloc)-tables) / 1e6
	t.Logf("ReadOracle of a %d-byte snapshot allocates %.2f MB beyond its %d table bytes (%v), in %d allocations",
		buf.Len(), beyond, tables, kinds, after.Mallocs-before.Mallocs)
	if beyond >= 3.2 {
		t.Errorf("ReadOracle of a %d-byte snapshot allocates %.2f MB beyond its table bytes, want < 3.2", buf.Len(), beyond)
	}
}
