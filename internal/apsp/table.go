package apsp

import (
	"math"

	"repro/internal/graph"
	"repro/internal/snapshot"
)

// table is a symmetric side-n distance table (S^r or A) stored once per
// pair as its upper triangle, row-major: n(n+1)/2 entries, indexed by
// triAt. Its element type is chosen from the data, never by an option:
// the narrowest of uint8, uint16, float32 and float64 that holds every
// entry bit for bit (packTable). It is a tri of that type, and nil where
// an oracle holds no such table (a shard's A). A read returns the float64
// the entry was computed as, whichever type holds it; the reads that run
// once per entry in a loop are tri methods, so a call picks the type once.
// No integer kind holds a sentinel: a table holding Inf is float64.
type table interface {
	len() int
	kind() uint32
	at(i int) graph.Weight
	query(a *EarAPSP, x, y int32) graph.Weight
	row(a *EarAPSP, x int32, out []graph.Weight) int64
	sweepAP(o *Oracle, cuts []int32, dcut, dAP, out []graph.Weight)
	encode(e *snapshot.Encoder)
}

// tri is a table's upper triangle at element type T.
type tri[T snapshot.Entry] []T

// The table kinds, by the kind word a snapshot writes each behind:
// float64 since payload v5, float32 since v7, uint8 and uint16 since v8.
const (
	kind64 = 1 + iota
	kind32
	kind8
	kind16
)

// tableKinds holds, by kind word, each kind's element type name, its
// bytes per entry, the range of values it holds and its snapshot reader.
var tableKinds = [...]struct {
	name   string
	size   int64
	lo, hi float64
	read   func(*snapshot.Decoder) table
}{
	kind64: {"float64", 8, math.Inf(-1), math.Inf(1), readTri[float64]},
	kind32: {"float32", 4, -math.MaxFloat32, math.MaxFloat32, readTri[float32]},
	kind8:  {"uint8", 1, 0, math.MaxUint8, readTri[uint8]},
	kind16: {"uint16", 2, 0, math.MaxUint16, readTri[uint16]},
}

// readTri reads a table's entries at type T, in place.
func readTri[T snapshot.Entry](d *snapshot.Decoder) table { return tri[T](snapshot.ReadTable[T](d)) }

func (t tri[T]) len() int { return len(t) }

func (t tri[T]) kind() uint32 {
	switch any(T(0)).(type) {
	case uint8:
		return kind8
	case uint16:
		return kind16
	case float32:
		return kind32
	}
	return kind64
}

func (t tri[T]) at(i int) graph.Weight { return graph.Weight(t[i]) }

// get reads entry (i, j) of the side-n triangle.
func (t tri[T]) get(i, j int32, n int) graph.Weight { return graph.Weight(t[triAt(i, j, n)]) }

// encode appends the table behind its kind word; the entries are
// borrowed, not copied.
func (t tri[T]) encode(e *snapshot.Encoder) {
	e.U32(t.kind())
	snapshot.AppendTable(e, t)
}

// triLen is the entry count of a side-n table stored as its upper triangle.
func triLen(n int) int { return n * (n + 1) / 2 }

// triAt indexes a symmetric side-n table stored as its upper triangle,
// row-major: the pair is swapped to i ≤ j; row i holds (i, i..n-1).
func triAt(i, j int32, n int) int {
	lo, hi := int(min(i, j)), int(max(i, j))
	return lo*(2*n-lo-1)/2 + hi
}

// packTable packs the upper triangle of the side-n row-major square sq
// into a table of the narrowest kind that holds every entry, reading each
// entry once: it packs as uint8 until an entry does not fit, then widens
// the entries packed so far to the narrowest kind that holds that entry
// and goes on. A table of small integers — every S^r of the fixtures'
// blocks — allocates only its own triangle.
func packTable(sq []float64, n int) table {
	return packFrom(make(tri[uint8], triLen(n)), sq, n, 0, 0, 0)
}

// packFrom packs sq's upper triangle from row s, column j on into t from
// index k on; t[:k] holds the entries before.
func packFrom[T snapshot.Entry](t tri[T], sq []float64, n, s, j, k int) table {
	kd := tableKinds[t.kind()]
	for ; s < n; s, j = s+1, s+1 {
		for ; j < n; j, k = j+1, k+1 {
			v := sq[s*n+j]
			if !holds[T](v, kd.lo, kd.hi) {
				switch {
				case tri[uint16](nil).fits(v):
					return packFrom(widen[uint16](t, k), sq, n, s, j, k)
				case tri[float32](nil).fits(v):
					return packFrom(widen[float32](t, k), sq, n, s, j, k)
				}
				return packFrom(widen[float64](t, k), sq, n, s, j, k)
			}
			t[k] = T(v)
		}
	}
	return t
}

// fits reports whether v survives T bit for bit.
func (t tri[T]) fits(v float64) bool {
	kd := tableKinds[t.kind()]
	return holds[T](v, kd.lo, kd.hi)
}

// holds reports whether v is not outside [lo, hi], T's range, and
// survives T bit for bit. The range comes first: Go leaves a conversion
// out of range implementation-defined. float64 holds every v, NaN too.
func holds[T snapshot.Entry](v, lo, hi float64) bool {
	return !(v < lo || v > hi) && same(v, float64(T(v)))
}

// widen returns t's first k entries at type U in a triangle of t's length.
func widen[U, T snapshot.Entry](t tri[T], k int) tri[U] {
	u := make(tri[U], len(t))
	for i, v := range t[:k] {
		u[i] = U(v)
	}
	return u
}

// same reports whether v and w are one float64, bit for bit.
func same(v, w float64) bool { return math.Float64bits(v) == math.Float64bits(w) }
