package apsp

import (
	"math"

	"repro/internal/graph"
)

// table is a symmetric side-n distance table (S^r or A) stored once per
// pair as its upper triangle, row-major: n(n+1)/2 entries, indexed by
// triAt. Its width is chosen from the data, never by an option: float32
// when every entry round-trips through float32 bit for bit, float64
// otherwise. f32 is non-nil exactly when the table is narrow, and f64
// then nil; both are nil where an oracle holds no such table (a shard's
// A). A read returns the float64 the entry was computed as, whichever
// width holds it.
type table struct {
	f32 []float32
	f64 []float64
}

// weight is the element type of a table's entries.
type weight interface{ float32 | float64 }

// triLen is the entry count of a side-n table stored as its upper triangle.
func triLen(n int) int { return n * (n + 1) / 2 }

// triAt indexes a symmetric side-n table stored as its upper triangle,
// row-major: the pair is swapped to i ≤ j; row i holds (i, i..n-1).
func triAt(i, j int32, n int) int {
	lo, hi := int(min(i, j)), int(max(i, j))
	return lo*(2*n-lo-1)/2 + hi
}

// exact32 reports whether v survives float32 bit for bit.
func exact32(v float64) bool { return math.Float64bits(float64(float32(v))) == math.Float64bits(v) }

// packTable packs the upper triangle of the side-n row-major square sq
// into a table, choosing its width in the same pass: entries go into a
// float32 triangle while each round-trips, and the first that does not
// packs the square again, into a float64 triangle.
func packTable(sq []float64, n int) table {
	t32 := make([]float32, triLen(n))
	k := 0
	for s := range n {
		for _, v := range sq[s*n+s : (s+1)*n] {
			if !exact32(v) {
				t64 := make([]float64, 0, triLen(n))
				for s := range n {
					t64 = append(t64, sq[s*n+s:(s+1)*n]...)
				}
				return table{f64: t64}
			}
			t32[k] = float32(v)
			k++
		}
	}
	return table{f32: t32}
}

// narrow reports whether the table holds float32 entries.
func (t table) narrow() bool { return t.f32 != nil }

// len is the table's entry count.
func (t table) len() int { return len(t.f32) + len(t.f64) }

// bytes is the memory the table's entries take.
func (t table) bytes() int64 { return 4*int64(len(t.f32)) + 8*int64(len(t.f64)) }

// at reads entry i of either width. A read that runs once per table
// entry in a loop dispatches on the width once instead and reads the
// typed slice (atT).
func (t table) at(i int) graph.Weight {
	if t.f32 != nil {
		return graph.Weight(t.f32[i])
	}
	return t.f64[i]
}

// atT reads entry (i, j) of a side-n triangle of either element type.
func atT[T weight](t []T, i, j int32, n int) graph.Weight { return graph.Weight(t[triAt(i, j, n)]) }
