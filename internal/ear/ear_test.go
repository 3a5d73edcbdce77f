package ear

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func biconnectedSuite() map[string]*graph.Graph {
	cfg := gen.Config{MaxWeight: 6}
	rng := gen.NewRNG(23)
	return map[string]*graph.Graph{
		"triangle": gen.Ring(3, cfg, rng),
		"ring10":   gen.Ring(10, cfg, rng),
		"k5":       gen.Complete(5, cfg, rng),
		"grid":     gen.Grid(4, 5, cfg, rng),
		"planar":   gen.PlanarEars(60, 2, cfg, rng),
		"subdiv":   gen.Subdivide(gen.Complete(5, cfg, rng), 0.7, 3, cfg, rng),
	}
}

func TestDecomposeValidEars(t *testing.T) {
	for name, g := range biconnectedSuite() {
		ears, err := Decompose(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Ears partition the edges.
		seen := make([]int, g.NumEdges())
		for ei, e := range ears {
			if len(e.Edges) == 0 || len(e.Vertices) != len(e.Edges)+1 {
				t.Fatalf("%s: malformed ear %d", name, ei)
			}
			for i, eid := range e.Edges {
				seen[eid]++
				// consecutive vertices joined by the listed edge
				edge := g.Edge(eid)
				a, b := e.Vertices[i], e.Vertices[i+1]
				if !((edge.U == a && edge.V == b) || (edge.V == a && edge.U == b)) {
					t.Fatalf("%s: ear %d edge %d does not join %d-%d", name, ei, eid, a, b)
				}
			}
		}
		for eid, c := range seen {
			if c != 1 {
				t.Fatalf("%s: edge %d on %d ears", name, eid, c)
			}
		}
		// First ear is a cycle; later ears are open paths whose endpoints
		// lie on earlier ears.
		onEarlier := make(map[int32]bool)
		for ei, e := range ears {
			first, last := e.Vertices[0], e.Vertices[len(e.Vertices)-1]
			if ei == 0 {
				if first != last {
					t.Fatalf("%s: first ear is not a cycle", name)
				}
			} else {
				if first == last {
					t.Fatalf("%s: ear %d is a cycle", name, ei)
				}
				if !onEarlier[first] || !onEarlier[last] {
					t.Fatalf("%s: ear %d endpoints not on earlier ears", name, ei)
				}
				// interior vertices must be new
				for _, v := range e.Vertices[1 : len(e.Vertices)-1] {
					if onEarlier[v] {
						t.Fatalf("%s: ear %d interior vertex %d reused", name, ei, v)
					}
				}
			}
			for _, v := range e.Vertices {
				onEarlier[v] = true
			}
		}
	}
}

func TestDecomposeRejectsNonBiconnected(t *testing.T) {
	cfg := gen.Config{MaxWeight: 3}
	rng := gen.NewRNG(29)
	// two rings sharing a vertex: 2-edge-connected? no — sharing one
	// vertex keeps it 2-edge-connected but NOT 2-vertex-connected
	shared := gen.ChainBlocks([]*graph.Graph{gen.Ring(4, cfg, rng), gen.Ring(5, cfg, rng)}, cfg, rng)
	if _, err := Decompose(shared); err == nil {
		t.Fatal("one-point-connected rings should be rejected")
	}
	// bridge
	b := graph.NewBuilder(2)
	b.AddEdge(0, 1, 1)
	if _, err := Decompose(b.Build()); err == nil {
		t.Fatal("single edge should be rejected")
	}
	// disconnected
	b2 := graph.NewBuilder(6)
	b2.AddEdge(0, 1, 1)
	b2.AddEdge(1, 2, 1)
	b2.AddEdge(2, 0, 1)
	b2.AddEdge(3, 4, 1)
	b2.AddEdge(4, 5, 1)
	b2.AddEdge(5, 3, 1)
	if _, err := Decompose(b2.Build()); err == nil {
		t.Fatal("disconnected graph should be rejected")
	}
	if _, err := Decompose(gen.Ring(5, cfg, rng)); err != nil {
		t.Fatalf("ring: %v", err)
	}
	if _, err := Decompose(shared); err == nil {
		t.Fatal("shared-vertex rings are not biconnected")
	}
}

func TestReduceBasics(t *testing.T) {
	// two hubs joined by three chains (lengths 3, 1, 1 interior)
	b := graph.NewBuilder(7)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 3, 1)
	b.AddEdge(3, 4, 1) // chain 0-1-2-3-4
	b.AddEdge(0, 5, 2)
	b.AddEdge(5, 4, 2) // chain 0-5-4
	b.AddEdge(0, 6, 3)
	b.AddEdge(6, 4, 3) // chain 0-6-4
	g := b.Build()
	red := Reduce(g, APSP)
	if err := red.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(red.KeptToOrig) != 2 {
		t.Fatalf("kept %d, want 2", len(red.KeptToOrig))
	}
	if red.NumRemoved() != 5 {
		t.Fatalf("removed %d, want 5", red.NumRemoved())
	}
	if len(red.Chains) != 3 {
		t.Fatalf("chains %d, want 3", len(red.Chains))
	}
	// APSP mode keeps only the cheapest parallel chain (weight 4 path is
	// the chain 0..4 with weight 4, the 0-5-4 chain weighs 4 too, 0-6-4
	// weighs 6; min is 4)
	if red.R.NumEdges() != 1 {
		t.Fatalf("APSP reduced edges %d, want 1", red.R.NumEdges())
	}
	if red.R.Edge(0).W != 4 {
		t.Fatalf("reduced weight %v, want 4", red.R.Edge(0).W)
	}
	// MCB mode keeps all three
	redM := Reduce(g, MCB)
	if redM.R.NumEdges() != 3 {
		t.Fatalf("MCB reduced edges %d, want 3", redM.R.NumEdges())
	}
	if err := redM.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReduceAnchors(t *testing.T) {
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1, 2) // 0 and 4 will be hubs
	b.AddEdge(1, 2, 3)
	b.AddEdge(2, 3, 4)
	b.AddEdge(3, 4, 5)
	b.AddEdge(0, 4, 1)
	b.AddEdge(0, 5, 7)
	b.AddEdge(5, 4, 7)
	g := b.Build()
	red := Reduce(g, APSP)
	if err := red.Validate(); err != nil {
		t.Fatal(err)
	}
	// vertex 2 sits on chain 0-1-2-3-4 at prefix 5 from 0
	a, bb, da, db := red.Anchors(2)
	if a == 0 && bb == 4 {
		if da != 5 || db != 9 {
			t.Fatalf("anchors distances %v/%v", da, db)
		}
	} else if a == 4 && bb == 0 {
		if da != 9 || db != 5 {
			t.Fatalf("anchors distances %v/%v", da, db)
		}
	} else {
		t.Fatalf("anchors %d/%d", a, bb)
	}
	// same-chain query
	direct, chain, ok := red.SameChain(1, 3)
	if !ok || direct != 7 || chain == nil {
		t.Fatalf("same chain: %v %v %v", direct, chain, ok)
	}
	// different chains
	if _, _, ok := red.SameChain(1, 5); ok {
		t.Fatal("vertices on different chains reported as same")
	}
}

func TestReduceCycleComponent(t *testing.T) {
	cfg := gen.Config{MaxWeight: 4}
	rng := gen.NewRNG(37)
	ring := gen.Ring(9, cfg, rng)
	red := Reduce(ring, MCB)
	if err := red.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(red.KeptToOrig) != 1 {
		t.Fatalf("cycle should keep one anchor, kept %d", len(red.KeptToOrig))
	}
	if red.R.NumEdges() != 1 {
		t.Fatalf("cycle should reduce to one loop, edges %d", red.R.NumEdges())
	}
	e := red.R.Edge(0)
	if e.U != e.V {
		t.Fatal("reduced cycle edge should be a self-loop")
	}
	if e.W != ring.TotalWeight() {
		t.Fatalf("loop weight %v, want %v", e.W, ring.TotalWeight())
	}
	// expansion recovers all 9 edges
	exp := red.ExpandEdge(0)
	if len(exp) != 9 {
		t.Fatalf("expanded %d edges", len(exp))
	}
	// APSP mode drops the loop from R
	redA := Reduce(ring, APSP)
	if redA.R.NumEdges() != 0 {
		t.Fatalf("APSP mode should drop loop chains, has %d", redA.R.NumEdges())
	}
}

func TestReduceSelfLoopAtKept(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 0, 5)
	b.AddEdge(0, 1, 1)
	b.AddEdge(0, 2, 1)
	b.AddEdge(1, 2, 1)
	g := b.Build()
	red := Reduce(g, MCB)
	if err := red.Validate(); err != nil {
		t.Fatal(err)
	}
	// only vertex 0 is kept (degree 4 counting the loop twice); vertices
	// 1 and 2 have degree 2 and contract into a loop chain at 0
	if len(red.KeptToOrig) != 1 || red.KeptToOrig[0] != 0 {
		t.Fatalf("kept %v", red.KeptToOrig)
	}
	loops := 0
	var loopWeights []graph.Weight
	for _, e := range red.R.Edges() {
		if e.U == e.V {
			loops++
			loopWeights = append(loopWeights, e.W)
		}
	}
	// two loops: the original self-loop (5) and the contracted triangle (3)
	if loops != 2 {
		t.Fatalf("loops %d, want 2", loops)
	}
	if !(loopWeights[0] == 5 && loopWeights[1] == 3 || loopWeights[0] == 3 && loopWeights[1] == 5) {
		t.Fatalf("loop weights %v", loopWeights)
	}
}

func TestReducePreservesKeptDistances(t *testing.T) {
	// cross-checked more thoroughly in the apsp package; here check the
	// structural invariant m - n is preserved (Lemma 3.1 statement 3).
	cfg := gen.Config{MaxWeight: 8}
	for seed := uint64(0); seed < 12; seed++ {
		rng := gen.NewRNG(seed)
		g := gen.Subdivide(gen.GNM(12, 24, cfg, rng), 0.8, 3, cfg, rng)
		red := Reduce(g, MCB)
		if err := red.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if g.NumEdges()-g.NumVertices() != red.R.NumEdges()-red.R.NumVertices() {
			t.Fatalf("seed %d: m-n not preserved: %d vs %d",
				seed, g.NumEdges()-g.NumVertices(), red.R.NumEdges()-red.R.NumVertices())
		}
		// total weight preserved: chain sums equal original sums
		var chainTotal graph.Weight
		for _, c := range red.Chains {
			chainTotal += c.Total
		}
		if chainTotal != g.TotalWeight() {
			t.Fatalf("seed %d: chain weight %v vs graph %v", seed, chainTotal, g.TotalWeight())
		}
	}
}

func TestEarsOfSelfLoopOnlyGraph(t *testing.T) {
	b := graph.NewBuilder(1)
	b.AddEdge(0, 0, 3)
	b.AddEdge(0, 0, 4)
	ears, err := Decompose(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	if len(ears) != 2 {
		t.Fatalf("self-loop ears %d", len(ears))
	}
}

func TestDecomposeEmptyAndTiny(t *testing.T) {
	// empty graph
	if ears, err := Decompose(graph.FromEdges(0, nil)); err != nil || ears != nil {
		t.Fatalf("empty graph: %v %v", ears, err)
	}
	// K2 with parallel edges: a valid two-ear decomposition
	b := graph.NewBuilder(2)
	b.AddEdge(0, 1, 1)
	b.AddEdge(0, 1, 2)
	ears, err := Decompose(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	if len(ears) != 1 || len(ears[0].Edges) != 2 {
		t.Fatalf("doubled K2 ears: %+v", ears)
	}
	// K2 single edge is not 2-edge-connected
	b2 := graph.NewBuilder(2)
	b2.AddEdge(0, 1, 1)
	if _, err := Decompose(b2.Build()); err == nil {
		t.Fatal("single edge should not be biconnected")
	}
}

func TestReduceValidateCatchesCorruption(t *testing.T) {
	cfg := gen.Config{MaxWeight: 5}
	rng := gen.NewRNG(51)
	g := gen.Subdivide(gen.Ring(6, cfg, rng), 1, 2, cfg, rng)
	red := Reduce(g, MCB)
	if err := red.Validate(); err != nil {
		t.Fatal(err)
	}
	// corrupt a prefix and expect Validate to notice
	if len(red.Chains) > 0 && len(red.Chains[0].Prefix) > 0 {
		red.Chains[0].Prefix[0] += 1
		if err := red.Validate(); err == nil {
			t.Fatal("corrupted prefix accepted")
		}
		red.Chains[0].Prefix[0] -= 1
	}
	// corrupt the total
	red.Chains[0].Total += 5
	if err := red.Validate(); err == nil {
		t.Fatal("corrupted total accepted")
	}
}
