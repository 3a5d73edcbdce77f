package bc

import (
	"testing"

	"repro/internal/graph"
)

// A small fixed barbell: two 4-cliques joined by a 3-edge path. The path
// interior carries all cross traffic, so its centrality dominates and the
// estimator's behaviour is easy to pin down deterministically.
func barbell() *graph.Graph {
	b := graph.NewBuilder(11)
	clique := func(vs []int32) {
		for i := 0; i < len(vs); i++ {
			for j := i + 1; j < len(vs); j++ {
				b.AddEdge(vs[i], vs[j], 1)
			}
		}
	}
	clique([]int32{0, 1, 2, 3})
	clique([]int32{7, 8, 9, 10})
	b.AddEdge(3, 4, 1)
	b.AddEdge(4, 5, 1)
	b.AddEdge(5, 6, 1)
	b.AddEdge(6, 7, 1)
	return b.Build()
}

func TestSampledExactAtFullSampleSize(t *testing.T) {
	g := barbell()
	exact := Parallel(g, 1)
	// k >= n must take the exact path regardless of seed
	for _, seed := range []uint64{1, 2, 99} {
		got := Sampled(g, g.NumVertices(), seed, 1)
		for v := range exact.Scores {
			if !approxEqual(got.Scores[v], exact.Scores[v]) {
				t.Fatalf("seed %d: full sample BC[%d] = %v, want %v",
					seed, v, got.Scores[v], exact.Scores[v])
			}
		}
	}
}

func TestSampledSeededConvergence(t *testing.T) {
	g := barbell()
	n := g.NumVertices()
	exact := Parallel(g, 1)

	// mean absolute error over all vertices, averaged across seeds
	meanErr := func(k int) float64 {
		var total float64
		seeds := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
		for _, seed := range seeds {
			est := Sampled(g, k, seed, 1)
			for v := range exact.Scores {
				d := est.Scores[v] - exact.Scores[v]
				if d < 0 {
					d = -d
				}
				total += d
			}
		}
		return total / float64(len(seeds)*n)
	}

	small := meanErr(3)
	large := meanErr(9)
	if large >= small {
		t.Fatalf("error did not shrink with sample size: k=3 → %.4f, k=9 → %.4f", small, large)
	}
	// At k = n-2 the estimator is close; at k = n it is exact (zero error).
	if exactErr := meanErr(n); exactErr != 0 {
		t.Fatalf("k=n error %v, want 0", exactErr)
	}
}

func TestSampledDeterministicPerSeed(t *testing.T) {
	g := barbell()
	a := Sampled(g, 5, 42, 2)
	b := Sampled(g, 5, 42, 1)
	for v := range a.Scores {
		if !approxEqual(a.Scores[v], b.Scores[v]) {
			t.Fatalf("same seed, different estimate at %d: %v vs %v", v, a.Scores[v], b.Scores[v])
		}
	}
	c := Sampled(g, 5, 43, 1)
	same := true
	for v := range a.Scores {
		if !approxEqual(a.Scores[v], c.Scores[v]) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical estimates — RNG not seeded")
	}
}
