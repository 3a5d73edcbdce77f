package check

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/apsp"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/verify"
)

// floatWeights rewrites every edge weight of g to a 0.1-step decimal in
// (0, 0.8], derived deterministically from the edge index. These weights
// are not exactly representable in binary, so per-source Dijkstra rows sum
// them in different association orders and the path tables disagree by
// ULPs — the condition that used to drive greedy reconstruction into its
// "stuck" panic.
func floatWeights(g *graph.Graph, seed uint64) *graph.Graph {
	rng := gen.NewRNG(seed)
	edges := g.Edges()
	out := make([]graph.Edge, len(edges))
	for i, e := range edges {
		out[i] = graph.Edge{U: e.U, V: e.V, W: 0.1 + float64(rng.Intn(8))*0.1}
	}
	return graph.FromEdges(g.NumVertices(), out)
}

// pathOddballs are the degenerate block-cut shapes the corpus does not
// carry: no tree at all, several trees, one block, and articulation points
// of high degree in the forest.
func pathOddballs() []NamedGraph {
	tri := func(a, b, c int32) []graph.Edge {
		return []graph.Edge{{U: a, V: b, W: 2}, {U: b, V: c, W: 3}, {U: c, V: a, W: 4}}
	}
	var fan []graph.Edge // three triangles on vertex 0, a tail behind one
	fan = append(append(append(fan, tri(0, 1, 2)...), tri(0, 3, 4)...), tri(0, 5, 6)...)
	fan = append(fan, graph.Edge{U: 6, V: 7, W: 1}, graph.Edge{U: 7, V: 8, W: 5})
	return append(shardOddballs(),
		NamedGraph{"isolated-only", graph.FromEdges(3, nil)},
		NamedGraph{"single-block", graph.FromEdges(3, tri(0, 1, 2))},
		NamedGraph{"star", graph.FromEdges(5, []graph.Edge{
			{U: 0, V: 1, W: 1}, {U: 0, V: 2, W: 2}, {U: 0, V: 3, W: 3}, {U: 0, V: 4, W: 4},
		})},
		NamedGraph{"ap-on-three-blocks", graph.FromEdges(9, fan)},
	)
}

func TestPathsCorpus(t *testing.T) {
	for _, ng := range append(Corpus(), pathOddballs()...) {
		if err := Paths(ng.G); err != nil {
			t.Errorf("%s: %v", ng.Name, err)
		}
		if err := oneAssembly(ng.G); err != nil {
			t.Errorf("%s: %v", ng.Name, err)
		}
	}
}

// tableBits reads every stored distance of o through its exported
// surface, in a fixed order: A, then each block's S^r over reduced-vertex
// pairs (Ear.Query on two kept vertices is the S^r entry itself).
func tableBits(o *apsp.Oracle) []uint64 {
	var bits []uint64
	for _, d := range o.A {
		bits = append(bits, math.Float64bits(d))
	}
	for _, blk := range o.Blocks {
		kept := blk.Ear.Red.KeptToOrig
		for _, x := range kept {
			for _, y := range kept {
				bits = append(bits, math.Float64bits(blk.Ear.Query(x, y)))
			}
		}
	}
	return bits
}

// oneAssembly holds every way an oracle of g comes to exist to one
// result: sequential, parallel, simulated, loaded, and delta-built
// through a script that changes nothing (same-weight reweight: the cheap
// path; insert-then-delete of one edge: the structural path) must all
// pass CheckInvariants and carry A and every S^r bit-for-bit equal to the
// plain build's, and the Banerjee oracle, same assembly over unreduced
// blocks, must agree on every Query.
func oneAssembly(g *graph.Graph) error {
	ctx := context.Background()
	n, m := int32(g.NumVertices()), int32(g.NumEdges())
	built := apsp.NewOracle(g)
	var buf bytes.Buffer
	if _, err := built.WriteTo(&buf); err != nil {
		return err
	}
	loaded, err := apsp.ReadOracle(&buf)
	if err != nil {
		return err
	}
	made := map[string]*apsp.Oracle{"built": built, "loaded": loaded, "parallel": apsp.NewOracleParallel(g, 4)}
	if m > 0 {
		same := []apsp.Delta{{Kind: apsp.DeltaWeight, Edge: m / 2, W: g.Edge(m / 2).W}}
		if made["reweighted"], _, err = built.ApplyDelta(ctx, same); err != nil {
			return err
		}
		undo := []apsp.Delta{{Kind: apsp.DeltaInsert, U: 0, V: n - 1, W: 2.5}, {Kind: apsp.DeltaDelete, Edge: m}}
		if made["insert+delete"], _, err = built.ApplyDelta(ctx, undo); err != nil {
			return err
		}
	}
	want := tableBits(built)
	for name, o := range made {
		if err := o.CheckInvariants(); err != nil {
			return fmt.Errorf("%s: %v", name, err)
		}
		if got := tableBits(o); !slices.Equal(got, want) {
			return fmt.Errorf("%s: tables differ from the plain build's", name)
		}
	}
	ban := apsp.NewBanerjee(g, 2)
	for u := int32(0); u < n; u++ {
		for v := int32(0); v < n; v++ {
			if a, b := built.Query(u, v), ban.Query(u, v); a != b {
				return fmt.Errorf("banerjee d(%d,%d) = %v, oracle %v", u, v, b, a)
			}
		}
	}
	return nil
}

func TestPathsCorpusFloatWeights(t *testing.T) {
	for _, ng := range Corpus() {
		if err := Paths(floatWeights(ng.G, 0xf10a7)); err != nil {
			t.Errorf("%s-float: %v", ng.Name, err)
		}
	}
}

func TestPathsRandom(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		g := RandomGraph(seed, 18)
		if err := Paths(g); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		if err := Paths(floatWeights(g, seed)); err != nil {
			t.Errorf("seed %d (float): %v", seed, err)
		}
	}
}

// TestPathsFloatNecklaces pins the family that originally produced the
// reconstruction panic: float-weighted cycle necklaces and theta graphs,
// whose long equal-weight detours maximise table ULP drift.
func TestPathsFloatNecklaces(t *testing.T) {
	cfg := gen.Config{MaxWeight: 7}
	for seed := uint64(1); seed <= 20; seed++ {
		rng := gen.NewRNG(seed)
		for name, g := range map[string]*graph.Graph{
			"necklace": gen.CycleNecklace(3+int(seed%3), 3+int(seed%2), cfg, rng),
			"theta":    gen.Theta([]int{2, 3, 3 + int(seed%3)}, cfg, rng),
		} {
			if err := Paths(floatWeights(g, seed*31)); err != nil {
				t.Errorf("%s seed %d: %v", name, seed, err)
			}
		}
	}
}

// TestPathsFollowCutChain is the chain property of cross-block paths: for
// every pair of articulation points — over the same graphs as the sweeps
// above, built and after a structural delta —
// the walk is the forest's cut chain expanded block by block, and its
// weight is the AP table's entry.
func TestPathsFollowCutChain(t *testing.T) {
	graphs := append(Corpus(), pathOddballs()...)
	for seed := uint64(1); seed <= 40; seed++ {
		graphs = append(graphs, NamedGraph{"random", floatWeights(RandomGraph(seed, 18), seed)})
	}
	chains := 0
	for _, ng := range graphs {
		o := apsp.NewOracle(ng.G)
		oracles := []*apsp.Oracle{o}
		if n := int32(ng.G.NumVertices()); n >= 2 {
			applied, _, err := o.ApplyDelta(context.Background(),
				[]apsp.Delta{{Kind: apsp.DeltaInsert, U: n - 1, V: n, W: 1.5}})
			if err != nil {
				t.Fatal(err)
			}
			oracles = append(oracles, applied)
		}
		for _, o := range oracles {
			cuts := o.BCT.CutVertices
			for ia, u := range cuts {
				for ib, v := range cuts {
					walk, err := o.PathChecked(u, v)
					if err != nil {
						t.Fatalf("%s: PathChecked(%d,%d): %v", ng.Name, u, v, err)
					}
					if ia == ib || walk == nil {
						continue
					}
					chains++
					if err := followsCutChain(o, walk); err != nil {
						t.Errorf("%s: walk %v %v", ng.Name, walk, err)
					}
					entry := o.A[ia*len(cuts)+ib]
					if err := verify.Walk(o.G, walk, entry); err != nil {
						t.Errorf("%s: walk %v against A[%d,%d]: %v", ng.Name, walk, ia, ib, err)
					}
				}
			}
		}
	}
	if chains < 1000 {
		t.Fatalf("only %d articulation-point pairs exercised", chains)
	}
}

// followsCutChain checks a walk between two articulation points against
// the block-cut tree: it must visit every cut vertex of the unique tree
// path between them in order, and between two consecutive cuts stay on the
// block that joins them. The tree path is found here by a BFS over the
// BlockCutTree adjacency, independently of the apsp.Forest navigation the
// oracle reads its chain from.
func followsCutChain(o *apsp.Oracle, walk []int32) error {
	bct := o.BCT
	numB := int32(len(bct.BlockCuts))
	src, dst := numB+bct.CutIndex[walk[0]], numB+bct.CutIndex[walk[len(walk)-1]]
	// BFS back from dst, so that following from[] out of src reads forward.
	from := make([]int32, int(numB)+len(bct.CutBlocks))
	for i := range from {
		from[i] = -1
	}
	from[dst] = dst
	for queue := []int32{dst}; len(queue) > 0 && from[src] < 0; queue = queue[1:] {
		nd := queue[0]
		next, off := bct.BlockCuts, numB
		if nd >= numB {
			next, off, nd = bct.CutBlocks, 0, nd-numB
		}
		for _, nb := range next[nd] {
			if from[nb+off] < 0 {
				from[nb+off] = queue[0]
				queue = append(queue, nb+off)
			}
		}
	}
	if from[src] < 0 {
		return fmt.Errorf("joins articulation points of different trees")
	}
	pos := 0
	for cut := src; cut != dst; {
		blk := from[cut]
		cut = from[blk]
		onBlock := make(map[int32]bool)
		for _, v := range o.Blocks[blk].Sub.ToParentVertex {
			onBlock[v] = true
		}
		for target := bct.CutVertices[cut-numB]; walk[pos] != target; {
			if pos++; pos == len(walk) || !onBlock[walk[pos]] {
				return fmt.Errorf("leaves block %d before reaching cut vertex %d", blk, target)
			}
		}
	}
	if pos != len(walk)-1 {
		return fmt.Errorf("continues past the last cut vertex")
	}
	return nil
}
