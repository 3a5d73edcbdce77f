package apsp

import (
	"bytes"
	"io"
	"runtime"
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
// blocks_m-sized oracle allocates less than a quarter of the bytes it
// writes, because every large table goes from the oracle to the
// destination as it stands — as float32 (blocks_m's integral weights
// narrow every table) and as float64 (the same entries widened).
func TestWriteToBorrowsTables(t *testing.T) {
	o := blocksM(t)
	for _, o := range []*Oracle{o, widened(o)} {
		size, err := o.WriteTo(io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		o.WriteTo(io.Discard)
		runtime.ReadMemStats(&after)
		alloc := after.TotalAlloc - before.TotalAlloc
		_, narrow, tables := o.TableBytes()
		t.Logf("WriteTo of a %d-byte snapshot, %d of %d tables float32, allocates %d bytes", size, narrow, tables, alloc)
		if 4*alloc >= uint64(size) {
			t.Errorf("WriteTo of a %d-byte snapshot allocates %d bytes, want < a quarter", size, alloc)
		}
	}
}

// TestReadOracleLoadsInPlace pins the load's "into place": reading a
// blocks_m snapshot from memory allocates less than 3.2 MB beyond the
// table bytes the oracle then holds (2.84 MB when the tables were
// squares, twice the bytes), because the container streams each section,
// every table is read straight into its final slice — a float32 table
// into a float32 slice, with no float64 copy — and each block's chains
// share three arrays.
func TestReadOracleLoadsInPlace(t *testing.T) {
	var buf bytes.Buffer
	if _, err := blocksM(t).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	o, err := ReadOracle(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	tables, narrow, n := o.TableBytes()
	if narrow != n {
		t.Errorf("%d of %d tables load as float32, want all: blocks_m's weights are integers", narrow, n)
	}
	beyond := float64(int64(after.TotalAlloc-before.TotalAlloc)-tables) / 1e6
	t.Logf("ReadOracle of a %d-byte snapshot allocates %.2f MB beyond its %d table bytes, in %d allocations",
		buf.Len(), beyond, tables, after.Mallocs-before.Mallocs)
	if beyond >= 3.2 {
		t.Errorf("ReadOracle of a %d-byte snapshot allocates %.2f MB beyond its table bytes, want < 3.2", buf.Len(), beyond)
	}
}
