package apsp

import (
	"context"
	"math"
	"slices"
	"testing"

	"repro/internal/graph"
)

// entries returns t's entries as float64, whichever width holds them.
func (t table) entries() []graph.Weight {
	if t.f64 != nil {
		return t.f64
	}
	out := make([]graph.Weight, len(t.f32))
	for i, v := range t.f32 {
		out[i] = graph.Weight(v)
	}
	return out
}

// SREntries and AEntries are the stored tables as float64, for the
// external tests.
func (a *EarAPSP) SREntries() []graph.Weight { return a.sr.entries() }

func (o *Oracle) AEntries() []graph.Weight { return o.apTab.entries() }

// Narrow reports whether S^r is held as float32, for the external tests.
func (a *EarAPSP) Narrow() bool { return a.sr.narrow() }

// widened returns a copy of o whose every table holds the same entries
// as float64: it must answer bit for bit as o does.
func widened(o *Oracle) *Oracle {
	w := *o
	w.apTab = table{f64: o.apTab.entries()}
	w.Blocks = make([]*EarAPSP, len(o.Blocks))
	for bi, b := range o.Blocks {
		if b != nil {
			c := *b
			c.sr = table{f64: b.sr.entries()}
			w.Blocks[bi] = &c
		}
	}
	return &w
}

// TestPackTableWidth: a table is narrow exactly when every entry
// round-trips through float32. An integral square packs narrow; one
// entry of 1/3, of 2²⁴+1 or Inf (math.MaxFloat64, which float32 cannot
// hold) anywhere in the triangle keeps the whole table float64. Either
// way the entries are the square's upper triangle, bit for bit, and an
// entry below the diagonal is never read.
func TestPackTableWidth(t *testing.T) {
	const n = 5
	square := func() []float64 {
		sq := make([]float64, n*n)
		for i := range n {
			for j := range n {
				sq[i*n+j] = float64(i + j)
			}
		}
		return sq
	}
	for _, c := range []struct {
		name   string
		at     int // square index overwritten with v, -1 for none
		v      float64
		narrow bool
	}{
		{"integral", -1, 0, true},
		{"2^24 exactly", 2*n + 3, 1 << 24, true},
		{"1/3 first", 0*n + 1, 1.0 / 3, false},
		{"1/3 mid-row", 2*n + 3, 1.0 / 3, false},
		{"2^24+1 last", n*n - 1, 1<<24 + 1, false},
		{"Inf", 1*n + 4, Inf, false},
		{"1/3 below the diagonal", 3*n + 1, 1.0 / 3, true},
	} {
		sq := square()
		if c.at >= 0 {
			sq[c.at] = c.v
		}
		tab := packTable(sq, n)
		if tab.narrow() != c.narrow || tab.len() != triLen(n) || (tab.f32 == nil) == (tab.f64 == nil) {
			t.Fatalf("%s: narrow %v with %d float32 and %d float64 entries, want narrow %v and %d entries",
				c.name, tab.narrow(), len(tab.f32), len(tab.f64), c.narrow, triLen(n))
		}
		if want := int64(triLen(n)) * map[bool]int64{true: 4, false: 8}[c.narrow]; tab.bytes() != want {
			t.Errorf("%s: %d bytes, want %d", c.name, tab.bytes(), want)
		}
		for i := range int32(n) {
			for j := i; j < n; j++ {
				if got, want := tab.at(triAt(i, j, n)), sq[int(i)*n+int(j)]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: entry (%d, %d) = %v, square %v", c.name, i, j, got, want)
				}
			}
		}
	}
	if tab := packTable(nil, 0); tab.len() != 0 || !tab.narrow() {
		t.Errorf("the empty table: %d entries, narrow %v", tab.len(), tab.narrow())
	}
}

// thirds is g with every weight divided by 3, which float32 cannot hold.
func thirds(g *graph.Graph) *graph.Graph {
	edges := slices.Clone(g.Edges())
	for i := range edges {
		edges[i].W /= 3
	}
	return graph.FromEdges(g.NumVertices(), edges)
}

// TestBothWidthsAnswerAlike runs the row, query and path equivalence on a
// narrow oracle and a wide one. Each test graph's oracle (float32 tables
// wherever its integral weights allow) and the same oracle widened answer
// every Row, Query and Path bit for bit, and every walk weighs its
// distance. With every weight divided by 3 the tables stay float64 and
// Query and Row match Floyd–Warshall within 1e-12 relative, which a table
// rounded to float32 (about 6e-8) would not.
func TestBothWidthsAnswerAlike(t *testing.T) {
	narrowed, wide := 0, 0
	for name, g := range testGraphs(t) {
		o := NewOracle(g)
		_, narrow, _ := o.TableBytes()
		narrowed += narrow
		w := widened(o)
		if _, narrow, _ := w.TableBytes(); narrow != 0 {
			t.Fatalf("%s: %d tables float32 after widening", name, narrow)
		}
		n := int32(g.NumVertices())
		ro, rw := make([]graph.Weight, n), make([]graph.Weight, n)
		for u := range n {
			o.Row(u, ro)
			w.Row(u, rw)
			for v := range n {
				q := math.Float64bits(o.Query(u, v))
				if math.Float64bits(w.Query(u, v)) != q || math.Float64bits(ro[v]) != q || math.Float64bits(rw[v]) != q {
					t.Fatalf("%s: d(%d, %d): Query %v / %v, Row %v / %v (narrow / wide)",
						name, u, v, o.Query(u, v), w.Query(u, v), ro[v], rw[v])
				}
				if !slices.Equal(o.Path(u, v), w.Path(u, v)) {
					t.Fatalf("%s: Path(%d, %d) %v narrow, %v wide", name, u, v, o.Path(u, v), w.Path(u, v))
				}
			}
		}
		checkPaths(t, g, name+"/wide", w.Query, w.Path)

		g3 := thirds(g)
		o3 := NewOracle(g3)
		_, narrow3, tables3 := o3.TableBytes()
		wide += tables3 - narrow3
		ref := FloydWarshall(g3)
		for u := range n {
			o3.Row(u, ro)
			for v := range n {
				d, want := o3.Query(u, v), ref[int(u)*int(n)+int(v)]
				if math.Abs(ro[v]-want) > 1e-12*want || math.Abs(d-want) > 1e-12*want {
					t.Fatalf("%s/3: d(%d, %d): Query %v, Row %v, Floyd–Warshall %v", name, u, v, d, ro[v], want)
				}
			}
		}
	}
	if narrowed == 0 || wide == 0 {
		t.Fatalf("%d float32 tables on the test graphs, %d float64 tables with weights divided by 3: want both", narrowed, wide)
	}
}

// TestApplyDeltaWidensOnlyTouchedBlocks: a reweight to 1/3 rebuilds only
// the block holding the edge, and only that block's S^r turns float64;
// the others are shared by pointer and stay float32. A stays float32 when
// the block's one cut leaves it alone, and turns float64 when the new
// weight becomes an A entry.
func TestApplyDeltaWidensOnlyTouchedBlocks(t *testing.T) {
	// A chain of three K4s on 0..3, 3..6 and 6..9 (edges 0..5, 6..11,
	// 12..17): no K4 vertex is reduced away, so each edge's weight is an
	// S^r entry, and the middle block's edge 8 joins its two cuts, 3 and 6.
	b := graph.NewBuilder(10)
	for _, base := range []int32{0, 3, 6} {
		for i := base; i < base+4; i++ {
			for j := i + 1; j < base+4; j++ {
				b.AddEdge(i, j, 1)
			}
		}
	}
	g := b.Build()
	o := NewOracle(g)
	if _, narrow, tables := o.TableBytes(); narrow != tables {
		t.Fatalf("%d of %d tables float32 on integral weights", narrow, tables)
	}
	blockOf := o.oldEdgeBlocks()
	for _, c := range []struct {
		edge  int32
		wideA bool
	}{
		{0, false}, // (0,1): its block's one cut leaves A alone
		{8, true},  // (3,6): A[3,6] becomes 1/3
	} {
		ds := []Delta{{Kind: DeltaWeight, Edge: c.edge, W: 1.0 / 3}}
		n, _, err := o.ApplyDelta(context.Background(), ds)
		if err != nil {
			t.Fatal(err)
		}
		for bi, b := range n.Blocks {
			touched := int32(bi) == blockOf[c.edge]
			if b.sr.narrow() == touched || (b == o.Blocks[bi]) == touched {
				t.Fatalf("edge %d: block %d float32 %v, shared %v; touched %v", c.edge, bi, b.sr.narrow(), b == o.Blocks[bi], touched)
			}
		}
		if n.apTab.narrow() == c.wideA {
			t.Fatalf("edge %d: A float32 %v, want %v", c.edge, n.apTab.narrow(), !c.wideA)
		}
		mutated, err := MutateGraph(g, ds)
		if err != nil {
			t.Fatal(err)
		}
		assertSameAnswers(t, n, mutated)
	}
}
