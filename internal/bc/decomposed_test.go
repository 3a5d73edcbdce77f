package bc

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestDecomposedMatchesBrandes(t *testing.T) {
	cfg := gen.Config{MaxWeight: 6}
	for seed := uint64(0); seed < 20; seed++ {
		rng := gen.NewRNG(seed * 3)
		var g *graph.Graph
		switch seed % 4 {
		case 0: // biconnected: single block, weights all 1
			g = gen.GNM(10+rng.Intn(20), 20+rng.Intn(40), cfg, rng)
		case 1: // chained blocks: many articulation points
			g = gen.ChainBlocks([]*graph.Graph{
				gen.Ring(4+rng.Intn(5), cfg, rng),
				gen.GNM(8, 14, cfg, rng),
				gen.Ring(5, cfg, rng),
				gen.Complete(4, cfg, rng),
			}, cfg, rng)
		case 2: // pendant trees
			g = gen.AttachPendants(gen.GNM(10, 18, cfg, rng), 10, 3, cfg, rng)
		default: // chains + pendants
			g = gen.AttachPendants(
				gen.Subdivide(gen.GNM(8, 14, cfg, rng), 0.6, 2, cfg, rng),
				5, 2, cfg, rng)
		}
		want := Parallel(g, 1)
		got := Decomposed(g, 2)
		for v := range want.Scores {
			if !approxEqual(got.Scores[v], want.Scores[v]) {
				t.Fatalf("seed %d: decomposed BC[%d] = %v, want %v",
					seed, v, got.Scores[v], want.Scores[v])
			}
		}
	}
}

func TestDecomposedMatchesBruteForce(t *testing.T) {
	cfg := gen.Config{MaxWeight: 4}
	rng := gen.NewRNG(71)
	g := gen.AttachPendants(
		gen.ChainBlocks([]*graph.Graph{gen.Ring(5, cfg, rng), gen.GNM(7, 12, cfg, rng)}, cfg, rng),
		4, 2, cfg, rng)
	want := bruteForce(g)
	got := Decomposed(g, 1)
	for v := range want {
		if !approxEqual(got.Scores[v], want[v]) {
			t.Fatalf("BC[%d] = %v, want %v", v, got.Scores[v], want[v])
		}
	}
}

func TestDecomposedDisconnected(t *testing.T) {
	b := graph.NewBuilder(8)
	// triangle + path, disjoint, one isolated vertex
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 0, 1)
	b.AddEdge(3, 4, 1)
	b.AddEdge(4, 5, 1)
	b.AddEdge(5, 6, 1)
	g := b.Build()
	want := Parallel(g, 1)
	got := Decomposed(g, 1)
	for v := range want.Scores {
		if !approxEqual(got.Scores[v], want.Scores[v]) {
			t.Fatalf("BC[%d] = %v, want %v", v, got.Scores[v], want.Scores[v])
		}
	}
	// interior path vertices carry all cross traffic of their component
	if got.Scores[4] != 2*(1*2) || got.Scores[5] != 2*(2*1) {
		t.Fatalf("path scores wrong: %v", got.Scores[3:7])
	}
}

func TestDecomposedSavesWork(t *testing.T) {
	cfg := gen.Config{MaxWeight: 3}
	rng := gen.NewRNG(81)
	blocks := make([]*graph.Graph, 12)
	for i := range blocks {
		blocks[i] = gen.Ring(8, cfg, rng)
	}
	g := gen.ChainBlocks(blocks, cfg, rng)
	flat := Parallel(g, 1)
	dec := Decomposed(g, 1)
	if dec.Relaxations*2 >= flat.Relaxations {
		t.Fatalf("decomposition should cut the work sharply: %d vs %d",
			dec.Relaxations, flat.Relaxations)
	}
	for v := range flat.Scores {
		if !approxEqual(dec.Scores[v], flat.Scores[v]) {
			t.Fatalf("scores differ at %d", v)
		}
	}
}

func TestSampledConvergesToExact(t *testing.T) {
	cfg := gen.Config{MaxWeight: 1}
	rng := gen.NewRNG(91)
	g := gen.PreferentialAttachment(200, 2, cfg, rng)
	exact := Parallel(g, 1)
	// full sample (k >= n) must be exact
	full := Sampled(g, 500, 1, 2)
	for v := range exact.Scores {
		if !approxEqual(full.Scores[v], exact.Scores[v]) {
			t.Fatalf("full sample differs at %d", v)
		}
	}
	// half sample: top-1 vertex must match (hub dominance) and the mean
	// relative error over high-centrality vertices must be modest
	half := Sampled(g, 100, 1, 2)
	if exact.TopK(1)[0] != half.TopK(1)[0] {
		t.Fatalf("sampled top-1 %d != exact %d", half.TopK(1)[0], exact.TopK(1)[0])
	}
	var err, norm float64
	for _, v := range exact.TopK(10) {
		d := exact.Scores[v] - half.Scores[v]
		if d < 0 {
			d = -d
		}
		err += d
		norm += exact.Scores[v]
	}
	if err/norm > 0.35 {
		t.Fatalf("sampling error too large: %.2f", err/norm)
	}
	// estimator work scales with k
	if half.Relaxations*3 > full.Relaxations*2 {
		t.Fatalf("half sample did too much work: %d vs %d", half.Relaxations, full.Relaxations)
	}
}
