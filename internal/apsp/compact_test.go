package apsp

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/snapshot"
)

// compactTol is the per-query relative tolerance the float32 table mode is
// held to in tests: each stored entry carries one float32 rounding (≤2⁻²⁴
// relative), a query sums a handful of entries, so ~1e-6 relative error is
// the analytical bound and 1e-5 leaves an order of magnitude of slack.
const compactTol = 1e-5

func compactAgrees(got, want graph.Weight) bool {
	if got >= Inf || want >= Inf {
		return got >= Inf && want >= Inf // unreachability must be exact
	}
	scale := math.Abs(want)
	if scale < 1 {
		scale = 1
	}
	return math.Abs(got-want) <= compactTol*scale
}

func compactTestGraph(t *testing.T) *graph.Graph {
	t.Helper()
	rng := gen.NewRNG(0xc0c0a)
	cfg := gen.Config{MaxWeight: 9}
	g := gen.ChainBlocks([]*graph.Graph{
		gen.Theta([]int{2, 3, 4}, cfg, rng),
		gen.CycleNecklace(3, 3, cfg, rng),
		gen.LoopFlower(2, 3, cfg, rng),
	}, cfg, rng)
	return gen.Subdivide(g, 0.5, 2, cfg, rng)
}

func buildCompact(t *testing.T, g *graph.Graph) *Oracle {
	t.Helper()
	o, err := NewOracleOpts(context.Background(), g, Options{Workers: 2, Compact32: true})
	if err != nil {
		t.Fatalf("compact build: %v", err)
	}
	if !o.Compact() {
		t.Fatal("Compact() = false on a Compact32 oracle")
	}
	return o
}

// TestCompact32QueryAgreement holds the float32 oracle to the float64 one
// on every pair, plus the structural invariants in compact mode.
func TestCompact32QueryAgreement(t *testing.T) {
	g := compactTestGraph(t)
	full := NewOracle(g)
	comp := buildCompact(t, g)
	if err := comp.CheckInvariants(); err != nil {
		t.Fatalf("compact invariants: %v", err)
	}
	n := g.NumVertices()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			got := comp.Query(int32(u), int32(v))
			want := full.Query(int32(u), int32(v))
			if !compactAgrees(got, want) {
				t.Fatalf("d(%d,%d) = %v compact, %v full", u, v, got, want)
			}
		}
	}
}

// TestCompact32Row checks the aggregate row path (which reads both table
// kinds through srAt/apAt) against per-pair queries of the float64 oracle.
func TestCompact32Row(t *testing.T) {
	g := compactTestGraph(t)
	full := NewOracle(g)
	comp := buildCompact(t, g)
	n := g.NumVertices()
	row := make([]graph.Weight, n)
	for u := 0; u < n; u++ {
		comp.Row(int32(u), row)
		for v := 0; v < n; v++ {
			if want := full.Query(int32(u), int32(v)); !compactAgrees(row[v], want) {
				t.Fatalf("row(%d)[%d] = %v, full %v", u, v, row[v], want)
			}
		}
	}
}

// TestCompact32InfSentinel pins the Inf round trip: a disconnected pair
// must read back exactly Inf from float32 storage, never a large finite.
func TestCompact32InfSentinel(t *testing.T) {
	g := graph.FromEdges(4, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 0, W: 1},
		// vertex 3 isolated
	})
	comp := buildCompact(t, g)
	if d := comp.Query(0, 3); d != Inf {
		t.Fatalf("disconnected pair: %v, want exact Inf", d)
	}
	if d := comp.Query(0, 1); d >= Inf {
		t.Fatalf("connected pair reads Inf")
	}
}

// TestCompact32SnapshotRoundTrip writes a compact oracle and restores it:
// the mode must survive and every answer must be bit-identical (float32
// tables round-trip exactly through the v2 layout).
func TestCompact32SnapshotRoundTrip(t *testing.T) {
	g := compactTestGraph(t)
	comp := buildCompact(t, g)
	var buf bytes.Buffer
	if _, err := comp.WriteTo(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	back, err := ReadOracle(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !back.Compact() {
		t.Fatal("compact mode lost through snapshot")
	}
	if err := back.CheckInvariants(); err != nil {
		t.Fatalf("restored invariants: %v", err)
	}
	n := g.NumVertices()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if got, want := back.Query(int32(u), int32(v)), comp.Query(int32(u), int32(v)); got != want {
				t.Fatalf("d(%d,%d) = %v restored, %v original", u, v, got, want)
			}
		}
	}
}

// TestCompact32Delta runs both delta paths on a compact oracle: the result
// must stay compact, satisfy the invariants, and agree with a compact
// rebuild of the mutated graph within tolerance.
func TestCompact32Delta(t *testing.T) {
	g := compactTestGraph(t)
	comp := buildCompact(t, g)
	scripts := map[string][]Delta{
		"weight-only": {{Kind: DeltaWeight, Edge: 0, W: 3}, {Kind: DeltaWeight, Edge: 1, W: 0}},
		"structural": {
			{Kind: DeltaInsert, U: 0, V: int32(g.NumVertices() - 1), W: 2},
			{Kind: DeltaDelete, Edge: 2},
		},
	}
	for name, script := range scripts {
		t.Run(name, func(t *testing.T) {
			applied, _, err := comp.ApplyDelta(context.Background(), script)
			if err != nil {
				t.Fatalf("apply: %v", err)
			}
			if !applied.Compact() {
				t.Fatal("compact mode lost through ApplyDelta")
			}
			if err := applied.CheckInvariants(); err != nil {
				t.Fatalf("post-apply invariants: %v", err)
			}
			mutated, err := MutateGraph(g, script)
			if err != nil {
				t.Fatalf("mutate: %v", err)
			}
			ref := FloydWarshall(mutated)
			n := mutated.NumVertices()
			for u := 0; u < n; u++ {
				for v := 0; v < n; v++ {
					if got := applied.Query(int32(u), int32(v)); !compactAgrees(got, ref[u*n+v]) {
						t.Fatalf("d(%d,%d) = %v, reference %v", u, v, got, ref[u*n+v])
					}
				}
			}
		})
	}
}

// TestOracleSnapshotRejectsV1 hand-rolls complete payloads in the
// two retired layouts — v1 (no meta flags, untagged float64 tables) and v2
// (flags and tagged tables); both with the stored forest and the AP graph
// behind the table — and checks each is refused as version skew, not
// half-decoded: there is no in-place migration, a snapshot from an older
// release is rebuilt.
func TestOracleSnapshotRejectsV1(t *testing.T) {
	g := compactTestGraph(t)
	o := NewOracle(g)

	// The AP graph of buildAPTable, which old payloads carried.
	apb := graph.NewBuilder(o.numA)
	var edgeBlock []int32
	for bi, blk := range o.Blocks {
		cuts := o.BCT.BlockCuts[bi]
		for i := range cuts {
			for j := i + 1; j < len(cuts); j++ {
				if w := blk.QueryParent(o.BCT.CutVertices[cuts[i]], o.BCT.CutVertices[cuts[j]]); w < Inf {
					apb.AddEdge(cuts[i], cuts[j], w)
					edgeBlock = append(edgeBlock, int32(bi))
				}
			}
		}
	}
	apGraph := apb.Build()

	for _, version := range []uint32{1, 2} {
		table := func(e *snapshot.Encoder, f64 []graph.Weight) {
			if version >= 2 {
				e.U32(tableKindF64)
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
			meta.U32(0) // flags: not compact
		}
		o.G.EncodeSnapshot(sw.Section("graph"))
		o.encodeDecomposition(sw.Section("bcc"))
		bl := sw.Section("blocks")
		for _, blk := range o.Blocks {
			blk.Ear.Red.EncodeSnapshot(bl)
			table(bl, blk.Ear.SR)
			bl.I64(blk.Ear.Relaxations)
			bl.U64(0)
		}
		fe := sw.Section("forest")
		fe.I32s(o.nodeParent)
		fe.I32s(o.nodeDepth)
		fe.I32s(o.nodeRoot)
		ae := sw.Section("aptable")
		table(ae, o.A)
		ae.U32(1)
		apGraph.EncodeSnapshot(ae)
		ae.I32s(edgeBlock)
		var buf bytes.Buffer
		if _, err := sw.WriteTo(&buf); err != nil {
			t.Fatalf("write v%d: %v", version, err)
		}

		if _, err := ReadOracle(&buf); !errors.Is(err, snapshot.ErrVersionSkew) {
			t.Fatalf("read v%d: err = %v, want ErrVersionSkew", version, err)
		}
	}
}
