package apsp

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/graph"
)

// triChain builds a chain of k triangles sharing articulation vertices:
// (0,1,2), (2,3,4), (4,5,6), ... Every block has ≤ 2 cut vertices.
func triChain(k int) *graph.Graph {
	b := graph.NewBuilder(2*k + 1)
	for i := 0; i < k; i++ {
		a := int32(2 * i)
		b.AddEdge(a, a+1, 1)
		b.AddEdge(a+1, a+2, 1)
		b.AddEdge(a, a+2, 1)
	}
	return b.Build()
}

// assertSameAnswers compares got against a freshly built oracle on want
// over every ordered pair of the larger vertex set.
func assertSameAnswers(t *testing.T, got *Oracle, want *graph.Graph) {
	t.Helper()
	ref := NewOracle(want)
	n := want.NumVertices()
	if got.G.NumVertices() != n {
		t.Fatalf("vertex count: got %d want %d", got.G.NumVertices(), n)
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			g, w := got.Query(int32(u), int32(v)), ref.Query(int32(u), int32(v))
			if g != w {
				t.Fatalf("d(%d,%d): got %v want %v", u, v, g, w)
			}
		}
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

func TestApplyDeltaWeightCheapPath(t *testing.T) {
	g := triChain(2) // blocks: (0,1,2) and (2,3,4), one articulation vertex 2
	o := NewOracle(g)
	before := o.Query(0, 4)

	ds := []Delta{{Kind: DeltaWeight, Edge: 0, W: 5}} // edge (0,1) in block 0
	n, res, err := o.ApplyDelta(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if res.RebuildFallback {
		t.Fatal("weight-only script took the rebuild fallback")
	}
	if res.TouchedBlocks != 1 || res.ReusedBlocks != 1 {
		t.Fatalf("touched/reused = %d/%d, want 1/1", res.TouchedBlocks, res.ReusedBlocks)
	}
	if res.APRebuilt {
		t.Fatal("AP table rebuilt for a single-cut block")
	}
	// The untouched block is carried over by reference, not recomputed.
	shared := false
	for _, ob := range o.Blocks {
		for _, nb := range n.Blocks {
			if ob == nb {
				shared = true
			}
		}
	}
	if !shared {
		t.Fatal("no block shared by reference on the cheap path")
	}
	mutated, err := MutateGraph(g, ds)
	if err != nil {
		t.Fatal(err)
	}
	assertSameAnswers(t, n, mutated)
	// The old oracle is untouched and still answers for the old graph.
	if got := o.Query(0, 4); got != before {
		t.Fatalf("old oracle changed: d(0,4) %v → %v", before, got)
	}
}

func TestApplyDeltaWeightRebuildsAPTable(t *testing.T) {
	g := triChain(3) // middle block (2,3,4) has two cut vertices (2 and 4)
	o := NewOracle(g)
	// Edge IDs 3,4,5 form the middle triangle; reweight one of them.
	ds := []Delta{{Kind: DeltaWeight, Edge: 4, W: 7}}
	n, res, err := o.ApplyDelta(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if !res.APRebuilt {
		t.Fatal("AP table not rebuilt after reweighting a two-cut block")
	}
	mutated, _ := MutateGraph(g, ds)
	assertSameAnswers(t, n, mutated)
}

func TestApplyDeltaInsertMergesBlocks(t *testing.T) {
	g := triChain(3)
	o := NewOracle(g)
	// A chord across the first two triangles merges them into one block.
	ds := []Delta{{Kind: DeltaInsert, U: 0, V: 3, W: 1}}
	n, res, err := o.ApplyDelta(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if !res.RebuildFallback {
		t.Fatal("insert did not take the rebuild fallback")
	}
	if res.ReusedBlocks == 0 {
		t.Fatal("far block not reused across a structural delta")
	}
	// The reused block shares its EarAPSP pointer with the old oracle.
	sharedEar := false
	for _, ob := range o.Blocks {
		for _, nb := range n.Blocks {
			if ob == nb {
				sharedEar = true
			}
		}
	}
	if !sharedEar {
		t.Fatal("no EarAPSP shared by reference on the structural path")
	}
	mutated, _ := MutateGraph(g, ds)
	assertSameAnswers(t, n, mutated)
}

func TestApplyDeltaDeleteSplitsBlock(t *testing.T) {
	// A 6-cycle is one block; deleting one edge splits it into 5 bridge
	// blocks.
	b := graph.NewBuilder(6)
	for i := int32(0); i < 6; i++ {
		b.AddEdge(i, (i+1)%6, 1)
	}
	g := b.Build()
	o := NewOracle(g)
	ds := []Delta{{Kind: DeltaDelete, Edge: 2}}
	n, res, err := o.ApplyDelta(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if !res.RebuildFallback || res.TouchedBlocks == 0 {
		t.Fatalf("delete: fallback=%v touched=%d", res.RebuildFallback, res.TouchedBlocks)
	}
	mutated, _ := MutateGraph(g, ds)
	assertSameAnswers(t, n, mutated)
}

func TestApplyDeltaMultiComponentStaleness(t *testing.T) {
	// Two disjoint triangles; a delta in the first must leave the second
	// alone: its block is reused even on the structural path.
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(0, 2, 1)
	b.AddEdge(3, 4, 1)
	b.AddEdge(4, 5, 1)
	b.AddEdge(3, 5, 1)
	g := b.Build()
	o := NewOracle(g)

	ds := []Delta{{Kind: DeltaInsert, U: 0, V: 1, W: 3}} // parallel edge in comp 0
	n, res, err := o.ApplyDelta(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReusedBlocks != 1 {
		t.Fatalf("untouched component's block not reused: reused=%d", res.ReusedBlocks)
	}
	mutated, _ := MutateGraph(g, ds)
	assertSameAnswers(t, n, mutated)
}

func TestApplyDeltaInsertNewVertexAndIsolated(t *testing.T) {
	// Vertex 3 exists but is isolated; vertex 4 does not exist yet.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(0, 2, 1)
	g := b.Build()
	o := NewOracle(g)

	ds := []Delta{
		{Kind: DeltaInsert, U: 2, V: 3, W: 2}, // connect the isolated vertex
		{Kind: DeltaInsert, U: 3, V: 4, W: 2}, // grow the graph by one vertex
	}
	n, _, err := o.ApplyDelta(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if got := n.Query(0, 4); got != 5 {
		t.Fatalf("d(0,4) = %v, want 5", got)
	}
	mutated, _ := MutateGraph(g, ds)
	assertSameAnswers(t, n, mutated)
}

func TestApplyDeltaSequentialIDSemantics(t *testing.T) {
	// Delete shifts later IDs down; a following weight change must hit the
	// shifted edge. Start: edges 0:(0,1) 1:(1,2) 2:(0,2). Delete edge 0,
	// then reweight edge 1 — which is now the original (0,2).
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(0, 2, 1)
	g := b.Build()
	o := NewOracle(g)
	ds := []Delta{
		{Kind: DeltaDelete, Edge: 0},
		{Kind: DeltaWeight, Edge: 1, W: 9},
	}
	n, _, err := o.ApplyDelta(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if got := n.Query(0, 2); got != 9 {
		t.Fatalf("d(0,2) = %v, want 9 (weight change must follow the ID shift)", got)
	}
	mutated, _ := MutateGraph(g, ds)
	assertSameAnswers(t, n, mutated)
}

func TestApplyDeltaRejectsBadScripts(t *testing.T) {
	g := triChain(1)
	o := NewOracle(g)
	before := o.Query(0, 2)
	bad := [][]Delta{
		{{Kind: DeltaWeight, Edge: 99, W: 1}},
		{{Kind: DeltaWeight, Edge: -1, W: 1}},
		{{Kind: DeltaWeight, Edge: 0, W: -1}},
		{{Kind: DeltaWeight, Edge: 0, W: math.NaN()}},
		{{Kind: DeltaWeight, Edge: 0, W: Inf}},
		{{Kind: DeltaInsert, U: -1, V: 0, W: 1}},
		{{Kind: DeltaInsert, U: 0, V: 9, W: 1}}, // beyond n+2 growth bound
		{{Kind: DeltaDelete, Edge: 3}},
		{{Kind: DeltaKind(7), Edge: 0}},
		// Valid prefix, invalid suffix: nothing may apply.
		{{Kind: DeltaWeight, Edge: 0, W: 2}, {Kind: DeltaDelete, Edge: 42}},
	}
	for i, ds := range bad {
		n, res, err := o.ApplyDelta(context.Background(), ds)
		if !errors.Is(err, ErrBadDelta) {
			t.Fatalf("script %d: err = %v, want ErrBadDelta", i, err)
		}
		if n != nil || res != nil {
			t.Fatalf("script %d: non-nil result on error", i)
		}
	}
	if got := o.Query(0, 2); got != before {
		t.Fatal("oracle changed by a rejected script")
	}
}

func TestApplyDeltaEmptyScriptAndCancellation(t *testing.T) {
	g := triChain(1)
	o := NewOracle(g)
	n, res, err := o.ApplyDelta(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.TouchedBlocks != 0 || res.RebuildFallback {
		t.Fatalf("empty script did work: %+v", res)
	}
	assertSameAnswers(t, n, g)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := o.ApplyDelta(ctx, []Delta{{Kind: DeltaWeight, Edge: 0, W: 2}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled apply: err = %v", err)
	}
}

func TestMutateGraphSemantics(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 2)
	g := b.Build()
	m, err := MutateGraph(g, []Delta{
		{Kind: DeltaDelete, Edge: 0},
		{Kind: DeltaInsert, U: 0, V: 2, W: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumEdges() != 2 {
		t.Fatalf("edges = %d, want 2", m.NumEdges())
	}
	if e := m.Edge(0); e.U != 1 || e.V != 2 || e.W != 2 {
		t.Fatalf("edge 0 = %+v after shift", e)
	}
	if e := m.Edge(1); e.U != 0 || e.V != 2 || e.W != 4 {
		t.Fatalf("edge 1 = %+v", e)
	}
	// The input graph is untouched.
	if g.NumEdges() != 2 || g.Edge(0).U != 0 {
		t.Fatal("MutateGraph mutated its input")
	}
}
