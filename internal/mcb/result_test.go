package mcb

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestSortedCyclesAndMinimum(t *testing.T) {
	cfg := gen.Config{MaxWeight: 9}
	rng := gen.NewRNG(31)
	g := gen.GNM(18, 30, cfg, rng)
	res := Compute(g, Options{UseEar: true})
	sorted := res.SortedCycles()
	if len(sorted) != len(res.Cycles) {
		t.Fatal("sorted length differs")
	}
	for i := 1; i < len(sorted); i++ {
		if sorted[i].Weight < sorted[i-1].Weight {
			t.Fatal("not sorted")
		}
	}
	min, ok := res.MinimumCycle()
	if !ok || min.Weight != sorted[0].Weight {
		t.Fatalf("minimum cycle %v vs sorted head %v", min.Weight, sorted[0].Weight)
	}
	// acyclic graph
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1, 1)
	empty := Compute(b.Build(), Options{})
	if _, ok := empty.MinimumCycle(); ok {
		t.Fatal("acyclic graph returned a minimum cycle")
	}
}

func TestMinimumCycleIsGlobalMinimum(t *testing.T) {
	// triangle of weight 6 next to a square of weight 4: the lightest
	// basis element must be the square.
	b := graph.NewBuilder(7)
	b.AddEdge(0, 1, 2)
	b.AddEdge(1, 2, 2)
	b.AddEdge(2, 0, 2)
	b.AddEdge(2, 3, 1)
	b.AddEdge(3, 4, 1)
	b.AddEdge(4, 5, 1)
	b.AddEdge(5, 6, 1)
	b.AddEdge(6, 3, 1)
	g := b.Build()
	res := Compute(g, Options{UseEar: true})
	min, ok := res.MinimumCycle()
	if !ok || min.Weight != 4 {
		t.Fatalf("minimum cycle weight %v, want 4", min.Weight)
	}
}

func TestVertexSequence(t *testing.T) {
	cfg := gen.Config{MaxWeight: 3}
	rng := gen.NewRNG(41)
	g := gen.Ring(7, cfg, rng)
	res := Compute(g, Options{UseEar: true})
	seq, ok := VertexSequence(g, res.Cycles[0])
	if !ok || len(seq) != 7 {
		t.Fatalf("ring sequence %v ok=%v", seq, ok)
	}
	seen := map[int32]bool{}
	for _, v := range seq {
		if seen[v] {
			t.Fatal("repeated vertex in simple cycle walk")
		}
		seen[v] = true
	}
	// self-loop cycle
	b := graph.NewBuilder(2)
	b.AddEdge(0, 0, 2)
	b.AddEdge(0, 1, 1)
	lg := b.Build()
	lres := Compute(lg, Options{})
	ls, ok := VertexSequence(lg, lres.Cycles[0])
	if !ok || len(ls) != 1 || ls[0] != 0 {
		t.Fatalf("loop sequence %v", ls)
	}
	// parallel-edge 2-cycle
	b2 := graph.NewBuilder(2)
	b2.AddEdge(0, 1, 1)
	b2.AddEdge(0, 1, 2)
	pg := b2.Build()
	pres := Compute(pg, Options{})
	ps, ok := VertexSequence(pg, pres.Cycles[0])
	if !ok || len(ps) != 2 {
		t.Fatalf("parallel pair sequence %v", ps)
	}
}
