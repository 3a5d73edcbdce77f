package check

import (
	"slices"
	"testing"

	"repro/internal/ear"
	"repro/internal/gen"
	"repro/internal/graph"
)

// The differential harness's own acceptance bar: ≥ 50 seeded random graphs
// per run for each of APSP, MCB, and BC, plus the fixed pathological
// corpus. Sizes are kept small enough that the O(n³) Floyd–Warshall
// reference and the all-roots Horton oracle stay cheap.

func TestDifferentialAPSPRandom(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		g := RandomGraph(seed, 20)
		if d := APSP(g); d != nil {
			t.Fatalf("seed %d (n=%d m=%d): %v", seed, g.NumVertices(), g.NumEdges(), d)
		}
	}
}

func TestDifferentialAPSPCorpus(t *testing.T) {
	for _, ng := range Corpus() {
		if d := APSP(ng.G); d != nil {
			t.Fatalf("%s: %v", ng.Name, d)
		}
	}
}

func TestDifferentialMCBRandom(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		g := RandomGraph(seed, 14)
		if err := MCB(g, seed); err != nil {
			t.Fatalf("seed %d (n=%d m=%d): %v", seed, g.NumVertices(), g.NumEdges(), err)
		}
	}
}

func TestDifferentialMCBCorpus(t *testing.T) {
	for _, ng := range Corpus() {
		if err := MCB(ng.G, 7); err != nil {
			t.Fatalf("%s: %v", ng.Name, err)
		}
	}
}

func TestDifferentialBCRandom(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		g := RandomGraph(seed, 24)
		if err := BC(g, 0); err != nil {
			t.Fatalf("seed %d (n=%d m=%d): %v", seed, g.NumVertices(), g.NumEdges(), err)
		}
	}
}

func TestDifferentialBCCorpus(t *testing.T) {
	for _, ng := range Corpus() {
		if err := BC(ng.G, 0); err != nil {
			t.Fatalf("%s: %v", ng.Name, err)
		}
	}
}

func TestInvariantsRandom(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		g := RandomGraph(seed, 20)
		if err := EarInvariants(g); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := BCCInvariants(g); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestInvariantsCorpus(t *testing.T) {
	for _, ng := range Corpus() {
		if err := EarInvariants(ng.G); err != nil {
			t.Fatalf("%s: %v", ng.Name, err)
		}
		if err := BCCInvariants(ng.G); err != nil {
			t.Fatalf("%s: %v", ng.Name, err)
		}
	}
}

// firstCheapest is the brute-force reference for APSP mode's reduced
// edges, read off the MCB reduction mcb, whose reduced edges are every
// chain in chain order: a chain stands for its kept pair iff it is no loop
// and no chain of the same pair is cheaper, or as cheap and earlier in
// chain order. It returns the kept chains' EdgeChain entries.
func firstCheapest(mcb *ear.Reduced) []int32 {
	var out []int32
	edges := mcb.R.Edges()
	for i, c := range edges {
		keep := c.U != c.V
		for j, d := range edges {
			samePair := c.U == d.U && c.V == d.V || c.U == d.V && c.V == d.U
			if samePair && (d.W < c.W || d.W == c.W && j < i) {
				keep = false
			}
		}
		if keep {
			out = append(out, mcb.EdgeChain[i])
		}
	}
	return out
}

// TestReduceKeepsFirstTiedChain: among parallel chains of equal Total,
// APSP mode keeps the first in chain order, as the brute-force reference
// does, and MCB mode keeps every chain. The fixed case ties a two-edge
// chain, a multi-edge and a later two-edge chain between kept vertices 0
// and 1 at weight 3, beside a dearer multi-edge and a loop chain of the
// same weight at 0; the random ones hang short chains of weight-0/1/2
// edges between a few hubs, plus a pure cycle, so ties are common.
func TestReduceKeepsFirstTiedChain(t *testing.T) {
	graphs := []*graph.Graph{graph.FromEdges(7, []graph.Edge{
		{U: 0, V: 1, W: 4}, {U: 0, V: 2, W: 1}, {U: 2, V: 1, W: 2}, {U: 0, V: 1, W: 3},
		{U: 0, V: 3, W: 2}, {U: 3, V: 1, W: 1}, {U: 0, V: 5, W: 1}, {U: 5, V: 6, W: 1}, {U: 6, V: 0, W: 1},
	})}
	for seed := uint64(1); seed <= 300; seed++ {
		rng := gen.NewRNG(seed)
		hubs := 2 + rng.Intn(4)
		n, edges := hubs, []graph.Edge(nil)
		for range 3 + rng.Intn(12) {
			prev := int32(rng.Intn(hubs))
			for range rng.Intn(3) {
				edges = append(edges, graph.Edge{U: prev, V: int32(n), W: graph.Weight(rng.Intn(2))})
				prev, n = int32(n), n+1
			}
			edges = append(edges, graph.Edge{U: prev, V: int32(rng.Intn(hubs)), W: graph.Weight(1 + rng.Intn(2))})
		}
		for i := range 4 {
			edges = append(edges, graph.Edge{U: int32(n + i), V: int32(n + (i+1)%4), W: 1})
		}
		graphs = append(graphs, graph.FromEdges(n+4, edges))
	}
	for i, g := range graphs {
		red, mcb := ear.Reduce(g, ear.APSP), ear.Reduce(g, ear.MCB)
		if want := firstCheapest(mcb); !slices.Equal(red.EdgeChain, want) {
			t.Fatalf("graph %d: APSP EdgeChain %v, want %v", i, red.EdgeChain, want)
		}
		if i == 0 && !slices.Equal(red.EdgeChain, []int32{0}) {
			t.Fatalf("fixed case: EdgeChain %v, want [0] (the first chain of weight 3, 0–2–1)", red.EdgeChain)
		}
		if len(mcb.EdgeChain) != mcb.NumChains() {
			t.Fatalf("graph %d: MCB EdgeChain %v over %d chains", i, mcb.EdgeChain, mcb.NumChains())
		}
		next := int32(0) // MCB names every chain with an interior once, in order
		for _, ref := range mcb.EdgeChain {
			if ref < 0 {
				continue
			}
			if ref != next {
				t.Fatalf("graph %d: MCB EdgeChain %v skips chain %d", i, mcb.EdgeChain, next)
			}
			next++
		}
		if int(next) != len(mcb.ChainA) {
			t.Fatalf("graph %d: MCB EdgeChain %v names %d of %d chains", i, mcb.EdgeChain, next, len(mcb.ChainA))
		}
		if err := EarInvariants(g); err != nil {
			t.Fatalf("graph %d: %v", i, err)
		}
	}
}

func TestDecodeGraphTotal(t *testing.T) {
	// Every byte string decodes to a well-formed graph within bounds.
	inputs := [][]byte{
		nil,
		{0},
		{255},
		{7, 1, 2},
		{13, 0, 0, 0, 1, 1, 1, 200, 200, 200},
	}
	for _, in := range inputs {
		g := DecodeGraph(in, 16, 32)
		if g.NumVertices() > 16 || g.NumEdges() > 32 {
			t.Fatalf("decode out of bounds: n=%d m=%d", g.NumVertices(), g.NumEdges())
		}
		for _, e := range g.Edges() {
			if e.U < 0 || int(e.U) >= g.NumVertices() || e.V < 0 || int(e.V) >= g.NumVertices() {
				t.Fatalf("decode produced out-of-range edge %+v", e)
			}
			if e.W < 1 || e.W > 9 {
				t.Fatalf("decode produced weight %v outside [1,9]", e.W)
			}
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, ng := range Corpus() {
		data, err := EncodeGraph(ng.G, 64)
		if err != nil {
			t.Fatalf("%s: %v", ng.Name, err)
		}
		h := DecodeGraph(data, 64, ng.G.NumEdges())
		if h.NumVertices() != ng.G.NumVertices() || h.NumEdges() != ng.G.NumEdges() {
			t.Fatalf("%s: round trip n=%d m=%d, want n=%d m=%d",
				ng.Name, h.NumVertices(), h.NumEdges(), ng.G.NumVertices(), ng.G.NumEdges())
		}
		for i, e := range h.Edges() {
			o := ng.G.Edge(int32(i))
			if e.U != o.U || e.V != o.V {
				t.Fatalf("%s: edge %d endpoints changed: %+v vs %+v", ng.Name, i, e, o)
			}
		}
	}
}

func TestRandomGraphDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		a := RandomGraph(seed, 20)
		b := RandomGraph(seed, 20)
		if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
			t.Fatalf("seed %d not deterministic", seed)
		}
		for i := range a.Edges() {
			if a.Edge(int32(i)) != b.Edge(int32(i)) {
				t.Fatalf("seed %d edge %d differs", seed, i)
			}
		}
	}
}

func TestCompactVertices(t *testing.T) {
	// vertices 0,2 used; 1,3 isolated; pin 3
	g := graph.FromEdges(4, []graph.Edge{{U: 0, V: 2, W: 1}})
	w, remap := CompactVertices(g, 3)
	if w.NumVertices() != 3 {
		t.Fatalf("got %d vertices, want 3", w.NumVertices())
	}
	if remap[1] != -1 {
		t.Fatalf("vertex 1 should be dropped, remap %d", remap[1])
	}
	if remap[3] < 0 {
		t.Fatal("pinned vertex 3 was dropped")
	}
	if e := w.Edge(0); e.U != remap[0] || e.V != remap[2] {
		t.Fatalf("edge endpoints not remapped: %+v", e)
	}
}
