package apsp_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/apsp"
	"repro/internal/check"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/sssp"
)

// mergeCase is one input of the merge test; integral says every weight is
// a whole number, so every path sum is exact in float64.
type mergeCase struct {
	check.NamedGraph
	integral bool
}

// reweight returns g with edge i's weight replaced by w(i).
func reweight(g *graph.Graph, w func(i int) graph.Weight) *graph.Graph {
	edges := slices.Clone(g.Edges())
	for i := range edges {
		edges[i].W = w(i)
	}
	return graph.FromEdges(g.NumVertices(), edges)
}

// mergeCases are check's differential inputs — the corpus, RandomGraph
// seeds, self-loop, parallel-edge and zero-weight shapes — plus a grid and
// a sparse random graph big enough to merge many rows, each once more with
// 0.1-step decimal weights, which binary floats cannot hold exactly.
func mergeCases() []mergeCase {
	cfg := gen.Config{MaxWeight: 9}
	rng := gen.NewRNG(0x3e96e)
	grid := gen.Grid(12, 12, cfg, rng)
	graphs := append(check.Corpus(),
		check.NamedGraph{Name: "loops-and-parallels", G: graph.FromEdges(6, []graph.Edge{
			{U: 0, V: 0, W: 3}, {U: 0, V: 1, W: 4}, {U: 0, V: 1, W: 2}, {U: 1, V: 1, W: 0},
			{U: 1, V: 2, W: 1}, {U: 2, V: 0, W: 9}, {U: 4, V: 5, W: 1}, // 3 is isolated
		})},
		check.NamedGraph{Name: "all-zero", G: graph.FromEdges(4, []graph.Edge{
			{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 0}, {U: 0, V: 2},
		})},
		check.NamedGraph{Name: "one-vertex", G: graph.FromEdges(1, nil)},
		check.NamedGraph{Name: "grid", G: grid},
		check.NamedGraph{Name: "grid-zero-plateaus", G: reweight(grid, func(i int) graph.Weight { return graph.Weight(i % 3 / 2) })},
		check.NamedGraph{Name: "gnm", G: gen.GNM(200, 420, cfg, rng)},
	)
	for seed := uint64(1); seed <= 12; seed++ {
		graphs = append(graphs, check.NamedGraph{Name: fmt.Sprintf("random-%d", seed), G: check.RandomGraph(seed, 30)})
	}
	var out []mergeCase
	for i, ng := range graphs {
		frng := gen.NewRNG(uint64(i + 1))
		float := reweight(ng.G, func(int) graph.Weight { return 0.1 + float64(frng.Intn(8))*0.1 })
		out = append(out, mergeCase{ng, true}, mergeCase{check.NamedGraph{Name: ng.Name + "-float", G: float}, false})
	}
	return out
}

// mergeTables are the EarAPSPs one case yields: every block of the ear
// oracle, then the flat (identity-reduction) table of the whole graph.
func mergeTables(g *graph.Graph, workers int) []*apsp.EarAPSP {
	var out []*apsp.EarAPSP
	for _, b := range apsp.NewOracleParallel(g, workers).Blocks {
		out = append(out, b.Ear)
	}
	return append(out, apsp.NewFlatAPSP(g, workers))
}

// checkMerged holds one filled table to its definition: the merged set is
// independent and each member has a non-loop neighbour; every row equals a
// Dijkstra from its source — bit for bit on integral weights and on
// searched rows, within 1e-12 relative on merged rows over float weights;
// Relaxations is the searched rows' Dijkstra work plus nr per merged
// non-loop arc. It returns the number of merged rows.
func checkMerged(t *testing.T, name string, ea *apsp.EarAPSP, integral bool) int {
	t.Helper()
	r := ea.Red.R
	nr := r.NumVertices()
	in, arcs := apsp.MergeSet(r)
	if len(in) != nr {
		t.Fatalf("%s: merge mask of %d for %d sources", name, len(in), nr)
	}
	var ownArcs int64
	merged := 0
	adj := r.AdjNode()
	for s := int32(0); s < int32(nr); s++ {
		if !in[s] {
			continue
		}
		merged++
		lo, hi := r.AdjacencyRange(s)
		own := int64(0)
		for _, u := range adj[lo:hi] {
			if u == s {
				continue
			}
			own++
			if in[u] {
				t.Fatalf("%s: merged %d and %d are adjacent", name, s, u)
			}
		}
		if own == 0 {
			t.Fatalf("%s: merged %d has no non-loop neighbour", name, s)
		}
		ownArcs += own
	}
	if arcs != ownArcs {
		t.Fatalf("%s: %d merged arcs reported, %d counted", name, arcs, ownArcs)
	}
	sc := sssp.NewScratch(nr)
	want := make([]graph.Weight, nr)
	relax := arcs * int64(nr)
	for s := 0; s < nr; s++ {
		k := sssp.DistancesOnly(r, int32(s), want, sc)
		if !in[s] {
			relax += k
		}
		for x, got := range ea.SR[s*nr : (s+1)*nr] {
			w := want[x]
			if math.Float64bits(got) == math.Float64bits(w) {
				continue
			}
			if integral || !in[s] || w >= apsp.Inf || math.Abs(got-w) > 1e-12*w {
				t.Fatalf("%s: S^r[%d,%d] = %v (merged %v), Dijkstra %v", name, s, x, got, in[s], w)
			}
		}
	}
	if ea.Relaxations != relax {
		t.Fatalf("%s: Relaxations %d, want %d", name, ea.Relaxations, relax)
	}
	return merged
}

// TestMergedRowsMatchDijkstra holds the two-pass fill to a Dijkstra from
// every source, on every EarAPSP the ear oracle and the flat arm build,
// holds the merged set and the table bits fixed across worker counts, and
// cancels between the passes.
func TestMergedRowsMatchDijkstra(t *testing.T) {
	t.Run("cancel-between-passes", cancelBetweenPasses)
	total := 0
	for _, tc := range mergeCases() {
		base := mergeTables(tc.G, 1)
		for i, ea := range base {
			total += checkMerged(t, fmt.Sprintf("%s table %d", tc.Name, i), ea, tc.integral)
		}
		for _, workers := range []int{2, 8} {
			for i, ea := range mergeTables(tc.G, workers) {
				ref := base[i]
				m, _ := apsp.MergeSet(ea.Red.R)
				rm, _ := apsp.MergeSet(ref.Red.R)
				if !slices.Equal(m, rm) || ea.Relaxations != ref.Relaxations {
					t.Fatalf("%s table %d, %d workers: merged %v, %d relaxations; 1 worker: %v, %d",
						tc.Name, i, workers, m, ea.Relaxations, rm, ref.Relaxations)
				}
				for j, d := range ea.SR {
					if math.Float64bits(d) != math.Float64bits(ref.SR[j]) {
						t.Fatalf("%s table %d, %d workers: S^r entry %d = %v, %v at 1 worker", tc.Name, i, workers, j, d, ref.SR[j])
					}
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("no row was merged on any case")
	}
}

// passCtx is cancelled by its second Done call. The processing phase asks
// once per pass, so the cancel lands after pass one has finished and
// before pass two claims a source.
type passCtx struct {
	context.Context
	calls atomic.Int32
	done  chan struct{}
}

func (c *passCtx) Done() <-chan struct{} {
	if c.calls.Add(1) == 2 {
		close(c.done)
	}
	return c.done
}

func (c *passCtx) Err() error {
	select {
	case <-c.done:
		return context.Canceled
	default:
		return nil
	}
}

// cancelBetweenPasses: a context cancelled between the two passes returns
// its error and no table.
func cancelBetweenPasses(t *testing.T) {
	g := gen.Grid(8, 8, gen.Config{MaxWeight: 5}, gen.NewRNG(3))
	for _, workers := range []int{1, 4} {
		ctx := &passCtx{Context: context.Background(), done: make(chan struct{})}
		a, err := apsp.NewEarAPSPParallelCtx(ctx, g, workers)
		if a != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("%d workers: got a table %v and err %v, want no table and context.Canceled", workers, a != nil, err)
		}
		if n := ctx.calls.Load(); n != 2 {
			t.Fatalf("%d workers: Done called %d times, want once per pass", workers, n)
		}
	}
}
