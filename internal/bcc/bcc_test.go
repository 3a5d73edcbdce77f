package bcc

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// bruteForceArticulation marks v as an articulation point iff deleting it
// increases the number of connected components among the remaining
// vertices of its component.
func bruteForceArticulation(g *graph.Graph) []bool {
	n := g.NumVertices()
	out := make([]bool, n)
	baseLabels, _ := graph.ComponentLabels(g)
	compSize := map[int32]int{}
	for _, l := range baseLabels {
		compSize[l]++
	}
	for v := int32(0); v < int32(n); v++ {
		if compSize[baseLabels[v]] <= 1 {
			continue
		}
		// count components of G - v restricted to v's original component
		seen := make([]bool, n)
		seen[v] = true
		comps := 0
		for s := int32(0); s < int32(n); s++ {
			if seen[s] || baseLabels[s] != baseLabels[v] {
				continue
			}
			comps++
			stack := []int32{s}
			seen[s] = true
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				g.Neighbors(x, func(u, eid int32) bool {
					if !seen[u] {
						seen[u] = true
						stack = append(stack, u)
					}
					return true
				})
			}
		}
		if comps > 1 {
			out[v] = true
		}
	}
	return out
}

func testSuite() map[string]*graph.Graph {
	cfg := gen.Config{MaxWeight: 5}
	rng := gen.NewRNG(31)
	gs := map[string]*graph.Graph{
		"ring":     gen.Ring(9, cfg, rng),
		"grid":     gen.Grid(4, 4, cfg, rng),
		"gnm":      gen.GNM(25, 40, cfg, rng),
		"pendants": gen.AttachPendants(gen.Ring(6, cfg, rng), 8, 3, cfg, rng),
		"blocks": gen.ChainBlocks([]*graph.Graph{
			gen.Ring(5, cfg, rng), gen.Complete(4, cfg, rng), gen.Ring(4, cfg, rng),
		}, cfg, rng),
		"subdiv": gen.Subdivide(gen.GNM(12, 20, cfg, rng), 0.6, 2, cfg, rng),
	}
	// path: every edge its own BCC, interior vertices articulation
	b := graph.NewBuilder(5)
	for i := int32(0); i < 4; i++ {
		b.AddEdge(i, i+1, 1)
	}
	gs["path"] = b.Build()
	// self-loop + bridge
	b2 := graph.NewBuilder(3)
	b2.AddEdge(0, 0, 1)
	b2.AddEdge(0, 1, 1)
	b2.AddEdge(1, 2, 1)
	gs["loop-bridge"] = b2.Build()
	// parallel edges
	b3 := graph.NewBuilder(3)
	b3.AddEdge(0, 1, 1)
	b3.AddEdge(0, 1, 2)
	b3.AddEdge(1, 2, 1)
	gs["parallel"] = b3.Build()
	return gs
}

func TestComponentsPartitionEdges(t *testing.T) {
	for name, g := range testSuite() {
		d := Compute(g)
		seen := make([]int, g.NumEdges())
		for _, comp := range d.Components {
			if len(comp) == 0 {
				t.Fatalf("%s: empty component", name)
			}
			for _, e := range comp {
				seen[e]++
			}
		}
		for e, c := range seen {
			if c != 1 {
				t.Fatalf("%s: edge %d in %d components", name, e, c)
			}
		}
	}
}

func TestArticulationMatchesBruteForce(t *testing.T) {
	for name, g := range testSuite() {
		d := Compute(g)
		want := bruteForceArticulation(g)
		for v := range want {
			if d.IsArticulation[v] != want[v] {
				t.Fatalf("%s: articulation[%d] = %v, want %v", name, v, d.IsArticulation[v], want[v])
			}
		}
	}
}

func TestArticulationRandomized(t *testing.T) {
	cfg := gen.Config{MaxWeight: 3}
	for seed := uint64(0); seed < 20; seed++ {
		rng := gen.NewRNG(seed)
		g := gen.GNM(5+rng.Intn(25), 5+rng.Intn(50), cfg, rng)
		if rng.Float64() < 0.5 {
			g = gen.AttachPendants(g, rng.Intn(10), 2, cfg, rng)
		}
		d := Compute(g)
		want := bruteForceArticulation(g)
		for v := range want {
			if d.IsArticulation[v] != want[v] {
				t.Fatalf("seed %d: articulation[%d] mismatch", seed, v)
			}
		}
	}
}

func TestKnownDecompositions(t *testing.T) {
	gs := testSuite()
	// ring: one component, no articulation
	d := Compute(gs["ring"])
	if len(d.Components) != 1 || len(d.ArticulationPoints()) != 0 {
		t.Fatalf("ring: %d comps, %d APs", len(d.Components), len(d.ArticulationPoints()))
	}
	// path: 4 single-edge components, 3 APs
	d = Compute(gs["path"])
	if len(d.Components) != 4 || len(d.ArticulationPoints()) != 3 {
		t.Fatalf("path: %d comps, %d APs", len(d.Components), len(d.ArticulationPoints()))
	}
	// three chained blocks share two articulation points
	d = Compute(gs["blocks"])
	if len(d.Components) != 3 || len(d.ArticulationPoints()) != 2 {
		t.Fatalf("blocks: %d comps, %d APs", len(d.Components), len(d.ArticulationPoints()))
	}
	// parallel edges form one biconnected pair plus the bridge
	d = Compute(gs["parallel"])
	if len(d.Components) != 2 {
		t.Fatalf("parallel: %d comps", len(d.Components))
	}
	// self-loop is its own singleton component and creates no AP by itself
	d = Compute(gs["loop-bridge"])
	if len(d.Components) != 3 {
		t.Fatalf("loop-bridge: %d comps", len(d.Components))
	}
	if !d.IsArticulation[1] || d.IsArticulation[0] && false {
		t.Fatalf("loop-bridge articulation wrong: %v", d.IsArticulation)
	}
}

func TestLargestComponentEdgeShare(t *testing.T) {
	g := testSuite()["blocks"]
	d := Compute(g)
	share := d.LargestComponentEdgeShare(g.NumEdges())
	if share <= 0 || share > 1 {
		t.Fatalf("share %v", share)
	}
	if d.LargestComponentEdgeShare(0) != 0 {
		t.Fatal("zero-edge share should be 0")
	}
}

func TestBlockCutTree(t *testing.T) {
	for name, g := range testSuite() {
		d := Compute(g)
		bct := BuildBlockCutTree(g, d)
		if !bct.IsTree() {
			t.Fatalf("%s: block-cut incidence is not a forest", name)
		}
		if bct.NumBlocks() != len(d.Components) {
			t.Fatalf("%s: block count mismatch", name)
		}
		// every non-isolated vertex has a primary block
		for v := int32(0); v < int32(g.NumVertices()); v++ {
			if g.Degree(v) > 0 && bct.BlockOf[v] < 0 {
				t.Fatalf("%s: vertex %d has no block", name, v)
			}
		}
		// cut vertex indices are consistent
		for ci, v := range bct.CutVertices {
			if bct.CutIndex[v] != int32(ci) {
				t.Fatalf("%s: cut index inconsistent", name)
			}
			if len(bct.CutBlocks[ci]) < 2 {
				t.Fatalf("%s: articulation point %d in %d blocks", name, v, len(bct.CutBlocks[ci]))
			}
		}
	}
}

func TestBlockOfPrefersRealBlocks(t *testing.T) {
	// self-loop listed before the bridge: BlockOf must still choose the
	// bridge block for vertex 0
	b := graph.NewBuilder(2)
	b.AddEdge(0, 0, 1)
	b.AddEdge(0, 1, 1)
	g := b.Build()
	d := Compute(g)
	bct := BuildBlockCutTree(g, d)
	blk := bct.BlockOf[0]
	comp := d.Components[blk]
	if len(comp) == 1 && g.Edge(comp[0]).U == g.Edge(comp[0]).V {
		t.Fatal("BlockOf picked the self-loop block")
	}
}
