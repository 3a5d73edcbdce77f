package apsp

import (
	"bytes"
	"io"
	"runtime"
	"runtime/metrics"
	"testing"

	"repro/internal/datasets"
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

// TestWriteToBorrowsTables pins the write's "no staging copy": writing a
// blocks_m-sized oracle allocates less than a quarter of its table bytes,
// because every large table goes from the oracle to the destination as it
// stands — as uint8 and uint16 (blocks_m's integral weights narrow every
// table) and as float64 (the same entries widened) — and so does the
// graph section's edge array.
func TestWriteToBorrowsTables(t *testing.T) {
	o := blocksM(t)
	allocated := func(f func()) int64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc - before.TotalAlloc)
	}
	for _, o := range []*Oracle{o, widened(o)} {
		size, err := o.WriteTo(io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		alloc := allocated(func() { o.WriteTo(io.Discard) })
		tables, kinds := o.TableBytes()
		t.Logf("WriteTo of a %d-byte snapshot, %d table bytes %v, allocates %d bytes", size, tables, kinds, alloc)
		if 4*alloc >= tables {
			t.Errorf("WriteTo of %d table bytes allocates %d bytes, want < a quarter", tables, alloc)
		}
	}
}

// TestReadOracleLoadsInPlace pins the load's "into place": reading a
// blocks_m snapshot from memory allocates less than 2.4 MB beyond the
// table bytes the oracle then holds (2.20 MB with flat chain arrays, 2.96
// with a record per chain), because the container streams each section,
// every table is read straight into its final slice at the type it was
// packed in — a uint8 table into a uint8 slice, with no float64 copy —
// and each block's chains are windows of two arrays.
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
	if beyond >= 2.4 {
		t.Errorf("ReadOracle of a %d-byte snapshot allocates %.2f MB beyond its table bytes, want < 2.4", buf.Len(), beyond)
	}
}

// TestReadOracleRetains pins what a loaded blocks oracle (cond_mat_2003
// at 0.25, the point workloads' graph) holds: at most 8 MB of live heap,
// of which at most 0.6 MB is scannable. Beside its tables it keeps one
// graph and, per block, a reduction of pointer-free arrays: no record per
// chain and no copy of the block's graph.
func TestReadOracleRetains(t *testing.T) {
	spec, err := datasets.ByName("cond_mat_2003")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := NewOracleParallel(spec.Generate(0.25, 1), 2).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	heap := func() (live, scan float64) {
		runtime.GC()
		m := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/scan/heap:bytes"}}
		metrics.Read(m)
		return float64(m[0].Value.Uint64()) / 1e6, float64(m[1].Value.Uint64()) / 1e6
	}
	live0, scan0 := heap()
	o, err := ReadOracle(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	live1, scan1 := heap()
	runtime.KeepAlive(o)
	live, scan := live1-live0, scan1-scan0
	t.Logf("a loaded %d-byte snapshot retains %.2f MB, %.2f MB of it scannable", buf.Len(), live, scan)
	if live > 8 || scan > 0.6 {
		t.Errorf("a loaded oracle retains %.2f MB, %.2f MB scannable: want ≤ 8 and ≤ 0.6", live, scan)
	}
}
