package apsp

import (
	"context"
	"math"
	"slices"
	"testing"

	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/snapshot"
	"repro/internal/sssp"
)

// entries returns t's entries as float64, whichever type holds them, and
// none for no table.
func entries(t table) []graph.Weight {
	if t == nil {
		return nil
	}
	out := make([]graph.Weight, t.len())
	for i := range out {
		out[i] = t.at(i)
	}
	return out
}

// encodeTable is tri.encode as a table writer.
func encodeTable(e *snapshot.Encoder, t table) { t.encode(e) }

// kindOf names the type t holds its entries at.
func kindOf(t table) string { return tableKinds[t.kind()].name }

// SREntries and AEntries are the stored tables as float64, and SRKind
// names the type S^r is held at, for the external tests.
func (a *EarAPSP) SREntries() []graph.Weight { return entries(a.sr) }

func (o *Oracle) AEntries() []graph.Weight { return entries(o.apTab) }

func (a *EarAPSP) SRKind() string { return kindOf(a.sr) }

// retyped returns a copy of o in which every table whose entries T
// holds bit for bit (every table, for float64) holds them at type T: it
// must answer bit for bit as o does.
func retyped[T snapshot.Entry](o *Oracle) *Oracle {
	conv := func(t table) table {
		if t == nil {
			return nil
		}
		u := make(tri[T], t.len())
		for i := range u {
			if !u.fits(t.at(i)) {
				return t
			}
			u[i] = T(t.at(i))
		}
		return u
	}
	w := *o
	w.apTab = conv(o.apTab)
	w.Blocks = make([]*EarAPSP, len(o.Blocks))
	for bi, b := range o.Blocks {
		if b != nil {
			c := *b
			c.sr = conv(b.sr)
			w.Blocks[bi] = &c
		}
	}
	return &w
}

// widened is o with every table held as float64.
func widened(o *Oracle) *Oracle { return retyped[float64](o) }

// TestPackTableWidth: a table is held at the narrowest type every entry
// round-trips through bit for bit. An integral square below 256 packs as
// uint8; one entry anywhere in the triangle at each type's bound, or just
// past it, decides the whole table: 255 uint8, 256 and 65 535 uint16,
// 65 536, 0.5, -0 and 2²⁴ float32, 1/3, 2²⁴+1 and Inf (math.MaxFloat64)
// float64. Entries that each need a wider type than the last widen the
// table step by step, and one that needs float64 after uint8 skips the
// steps between. Whatever the type, the entries are the square's upper
// triangle, bit for bit, and an entry below the diagonal is never read.
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
		name string
		set  map[int]float64 // square index to the entry written there
		kind string
	}{
		{"integral", nil, "uint8"},
		{"255", map[int]float64{2*n + 3: 255}, "uint8"},
		{"256 first", map[int]float64{0*n + 1: 256}, "uint16"},
		{"65535 last", map[int]float64{n*n - 1: 65535}, "uint16"},
		{"65536 mid-row", map[int]float64{2*n + 3: 65536}, "float32"},
		{"0.5", map[int]float64{1*n + 4: 0.5}, "float32"},
		{"-0", map[int]float64{1*n + 4: math.Copysign(0, -1)}, "float32"},
		{"2^24 exactly", map[int]float64{2*n + 3: 1 << 24}, "float32"},
		{"1/3 first", map[int]float64{0*n + 1: 1.0 / 3}, "float64"},
		{"1/3 mid-row", map[int]float64{2*n + 3: 1.0 / 3}, "float64"},
		{"2^24+1 last", map[int]float64{n*n - 1: 1<<24 + 1}, "float64"},
		{"Inf", map[int]float64{1*n + 4: Inf}, "float64"},
		{"1/3 below the diagonal", map[int]float64{3*n + 1: 1.0 / 3}, "uint8"},
		{"256, then 0.5", map[int]float64{0*n + 2: 256, 2*n + 4: 0.5}, "float32"},
		{"256, 65536, then 1/3", map[int]float64{0*n + 1: 256, 1*n + 3: 65536, 3*n + 4: 1.0 / 3}, "float64"},
	} {
		sq := square()
		for at, v := range c.set {
			sq[at] = v
		}
		tab := packTable(sq, n)
		if kindOf(tab) != c.kind || tab.len() != triLen(n) {
			t.Fatalf("%s: %d %s entries, want %d %s", c.name, tab.len(), kindOf(tab), triLen(n), c.kind)
		}
		for i := range int32(n) {
			for j := i; j < n; j++ {
				if got, want := tab.at(triAt(i, j, n)), sq[int(i)*n+int(j)]; !same(got, want) {
					t.Fatalf("%s: entry (%d, %d) = %v, square %v", c.name, i, j, got, want)
				}
			}
		}
	}
	if tab := packTable(nil, 0); tab.len() != 0 || kindOf(tab) != "uint8" {
		t.Errorf("the empty table: %d %s entries", tab.len(), kindOf(tab))
	}
}

// TestFixtureTableKinds justifies each integer kind on the benchmark's
// fixtures: every S^r of blocks_m (cond_mat_2003 at 0.08, weights 1..100,
// its blocks' distances below 256) is uint8 and its A, whose distances
// span blocks, uint16; planar_s (Planar_3 at 0.03) holds a block whose
// distances pass 255, so a uint16 S^r.
func TestFixtureTableKinds(t *testing.T) {
	o := blocksM(t)
	if _, kinds := o.TableBytes(); kinds[kind16] != 1 || kinds[kind8] != len(o.tables())-1 {
		t.Errorf("blocks_m holds %v tables, want one uint16 (A) and every other uint8", kinds)
	}
	if k := kindOf(o.apTab); k != "uint16" {
		t.Errorf("blocks_m's A is %s, want uint16", k)
	}
	spec, err := datasets.ByName("Planar_3")
	if err != nil {
		t.Fatal(err)
	}
	planar := NewOracle(spec.Generate(0.03, 1))
	if !slices.ContainsFunc(planar.Blocks, func(b *EarAPSP) bool { return kindOf(b.sr) == "uint16" }) {
		_, kinds := planar.TableBytes()
		t.Errorf("planar_s holds %v tables, want a uint16 S^r", kinds)
	}
}

// TestDisconnectedAStaysFloat64 pins the one table the ladder leaves
// wide on integral weights: A of a disconnected graph holds Inf between
// its components, and no integer kind has a sentinel for it, so A is
// float64 while every S^r (a block is connected) is uint8. Every Query
// and Row equals Bellman–Ford, Inf on the unreachable pairs.
func TestDisconnectedAStaysFloat64(t *testing.T) {
	b := graph.NewBuilder(7)
	for _, e := range [][2]int32{{0, 1}, {1, 2}, {2, 3}, {4, 5}, {5, 6}} {
		b.AddEdge(e[0], e[1], graph.Weight(e[0]+1))
	}
	g := b.Build()
	o := NewOracle(g)
	for bi, blk := range o.Blocks {
		if k := kindOf(blk.sr); k != "uint8" {
			t.Errorf("block %d: S^r is %s, want uint8", bi, k)
		}
	}
	if k := kindOf(o.apTab); k != "float64" {
		t.Errorf("A is %s, want float64", k)
	}
	row := make([]graph.Weight, 7)
	for u := range int32(7) {
		ref := sssp.BellmanFord(g, u)
		o.Row(u, row)
		for v := range int32(7) {
			if q := o.Query(u, v); !same(q, ref[v]) || !same(row[v], ref[v]) {
				t.Errorf("d(%d, %d): Query %v, Row %v, Bellman–Ford %v", u, v, q, row[v], ref[v])
			}
		}
	}
	if d := o.Query(0, 6); d != Inf {
		t.Errorf("d(0, 6) = %v, want Inf", d)
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

// TestBothWidthsAnswerAlike runs the row, query and path equivalence on
// the packed oracle and on copies held wider. Each test graph's oracle
// (integer tables wherever its integral weights allow), the same oracle
// with its tables as float32 (all but a disconnected graph's A) and with
// every table as float64 answer every Row, Query and Path bit for bit,
// and every walk weighs its distance. With every weight divided by 3 the
// tables stay float64 and Query and Row match Floyd–Warshall within 1e-12
// relative, which a table rounded to float32 (about 6e-8) would not.
func TestBothWidthsAnswerAlike(t *testing.T) {
	narrowed, as32, wide := 0, 0, 0
	for name, g := range testGraphs(t) {
		o := NewOracle(g)
		_, kinds := o.TableBytes()
		narrowed += len(o.tables()) - kinds[kind64]
		w, f := widened(o), retyped[float32](o)
		if _, kinds := w.TableBytes(); kinds[kind64] != len(w.tables()) {
			t.Fatalf("%s: %v tables after widening", name, kinds)
		}
		_, kinds = f.TableBytes()
		as32 += kinds[kind32]
		n := int32(g.NumVertices())
		ro, rw := make([]graph.Weight, n), make([]graph.Weight, n)
		for _, c := range []struct {
			kind string
			o    *Oracle
		}{{"float32", f}, {"float64", w}} {
			for u := range n {
				o.Row(u, ro)
				c.o.Row(u, rw)
				for v := range n {
					q := math.Float64bits(o.Query(u, v))
					if math.Float64bits(c.o.Query(u, v)) != q || math.Float64bits(ro[v]) != q || math.Float64bits(rw[v]) != q {
						t.Fatalf("%s: d(%d, %d): Query %v / %v, Row %v / %v (packed / %s)",
							name, u, v, o.Query(u, v), c.o.Query(u, v), ro[v], rw[v], c.kind)
					}
					if !slices.Equal(o.Path(u, v), c.o.Path(u, v)) {
						t.Fatalf("%s: Path(%d, %d) %v packed, %v %s", name, u, v, o.Path(u, v), c.o.Path(u, v), c.kind)
					}
				}
			}
			checkPaths(t, g, name+"/"+c.kind, c.o.Query, c.o.Path)
		}

		g3 := thirds(g)
		o3 := NewOracle(g3)
		_, kinds3 := o3.TableBytes()
		wide += kinds3[kind64]
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
	if narrowed == 0 || as32 == 0 || wide == 0 {
		t.Fatalf("%d narrow tables on the test graphs, %d held as float32, %d float64 tables with weights divided by 3: want each",
			narrowed, as32, wide)
	}
}

// TestApplyDeltaWidensOnlyTouchedBlocks: a reweight rebuilds only the
// block holding the edges, and only that block's S^r changes type, to the
// one its new distances need: uint16 once they pass 255, float64 for 1/3.
// The others are shared by pointer and stay uint8. A keeps its type when
// the block's one cut leaves it alone, and takes the new distances' type
// when they become A entries.
func TestApplyDeltaWidensOnlyTouchedBlocks(t *testing.T) {
	// A chain of three K4s on 0..3, 3..6 and 6..9 (edges 0..5, 6..11,
	// 12..17): no K4 vertex is reduced away, so each edge's weight is an
	// S^r entry once it is a shortest path, and the middle block's edge 8
	// joins its two cuts, 3 and 6.
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
	if _, kinds := o.TableBytes(); kinds[kind8] != len(o.tables()) {
		t.Fatalf("%v tables on weights of 1, want every one uint8", kinds)
	}
	blockOf := o.oldEdgeBlocks()
	for _, c := range []struct {
		edges   []int32
		w       graph.Weight
		sr, apK string
	}{
		{[]int32{0, 1, 2, 3, 4, 5}, 300, "uint16", "uint8"}, // the first K4: its one cut leaves A alone
		{[]int32{0}, 1.0 / 3, "float64", "uint8"},
		{[]int32{6, 7, 8, 9, 10, 11}, 300, "uint16", "uint16"}, // the middle K4: A[3,6] becomes 300
		{[]int32{8}, 1.0 / 3, "float64", "float64"},            // (3,6): A[3,6] becomes 1/3
	} {
		var ds []Delta
		for _, e := range c.edges {
			ds = append(ds, Delta{Kind: DeltaWeight, Edge: e, W: c.w})
		}
		n, _, err := o.ApplyDelta(context.Background(), ds)
		if err != nil {
			t.Fatal(err)
		}
		for bi, b := range n.Blocks {
			want, touched := "uint8", int32(bi) == blockOf[c.edges[0]]
			if touched {
				want = c.sr
			}
			if kindOf(b.sr) != want || (b == o.Blocks[bi]) == touched {
				t.Fatalf("edges %v to %v: block %d %s, shared %v; touched %v", c.edges, c.w, bi, kindOf(b.sr), b == o.Blocks[bi], touched)
			}
		}
		if k := kindOf(n.apTab); k != c.apK {
			t.Fatalf("edges %v to %v: A %s, want %s", c.edges, c.w, k, c.apK)
		}
		mutated, err := MutateGraph(g, ds)
		if err != nil {
			t.Fatal(err)
		}
		assertSameAnswers(t, n, mutated)
	}
}
