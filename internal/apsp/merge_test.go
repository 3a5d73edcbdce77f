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
	"repro/internal/datasets"
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
// a sparse and a denser random graph, big enough for many batches of
// searches to stop at finished rows, each once more with 0.1-step decimal
// weights, which binary floats cannot hold exactly.
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
		check.NamedGraph{Name: "gnm-dense", G: gen.GNM(400, 2400, cfg, rng)},
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
		out = append(out, b)
	}
	return append(out, apsp.NewFlatAPSP(g, workers))
}

// checkFilled holds one filled table to its definition: every stored row
// (s, x ≥ s) of the upper triangle equals a Dijkstra from s on R, bit for
// bit on integral weights and within 1e-12 relative on float weights,
// where a merged row's sums are added in another order. It returns the
// number of entries that differ and the largest relative difference.
func checkFilled(t *testing.T, name string, ea *apsp.EarAPSP, integral bool) (differ int, worst float64) {
	t.Helper()
	r := ea.Red.R
	nr := r.NumVertices()
	sc := sssp.NewScratch(nr)
	want := make([]graph.Weight, nr)
	for s, row := 0, ea.SREntries(); s < nr; s, row = s+1, row[nr-s:] {
		sssp.DistancesOnly(r, int32(s), want, sc)
		for j, got := range row[:nr-s] {
			x := s + j
			w := want[x]
			if math.Float64bits(got) == math.Float64bits(w) {
				continue
			}
			if integral || w >= apsp.Inf || math.Abs(got-w) > 1e-12*w {
				t.Fatalf("%s: S^r[%d,%d] = %v, Dijkstra %v", name, s, x, got, w)
			}
			differ++
			worst = max(worst, math.Abs(got-w)/w)
		}
	}
	return differ, worst
}

// TestMergedRowsMatchDijkstra holds the row-bounded fill to a Dijkstra
// from every source, on every EarAPSP the ear oracle and the flat arm
// build, holds the table bits and Relaxations fixed across worker counts,
// and cancels it between its passes. Some float entry must differ from
// Dijkstra's bits, or no search merged a finished row.
func TestMergedRowsMatchDijkstra(t *testing.T) {
	t.Run("cancel-between-passes", cancelBetweenPasses)
	differ, worst := 0, 0.0
	for _, tc := range mergeCases() {
		base := mergeTables(tc.G, 1)
		for i, ea := range base {
			d, w := checkFilled(t, fmt.Sprintf("%s table %d", tc.Name, i), ea, tc.integral)
			differ, worst = differ+d, max(worst, w)
		}
		for _, workers := range []int{2, 8} {
			for i, ea := range mergeTables(tc.G, workers) {
				ref := base[i]
				if ea.Relaxations != ref.Relaxations {
					t.Fatalf("%s table %d, %d workers: %d relaxations, %d at 1 worker",
						tc.Name, i, workers, ea.Relaxations, ref.Relaxations)
				}
				want := ref.SREntries()
				for j, d := range ea.SREntries() {
					if math.Float64bits(d) != math.Float64bits(want[j]) {
						t.Fatalf("%s table %d, %d workers: S^r entry %d = %v, %v at 1 worker", tc.Name, i, workers, j, d, want[j])
					}
				}
			}
		}
	}
	t.Logf("%d float entries differ from Dijkstra's bits, by at most %.2g relative", differ, worst)
	if differ == 0 {
		t.Fatal("every entry has Dijkstra's bits: no search merged a finished row")
	}
}

// passCtx counts its Done calls and is cancelled by call number at (never
// when at is 0). The fill asks before each search it claims, and claims no
// work after a cancel.
type passCtx struct {
	context.Context
	at    int32
	calls atomic.Int32
	done  chan struct{}
}

func newPassCtx(at int32) *passCtx {
	return &passCtx{Context: context.Background(), at: at, done: make(chan struct{})}
}

func (c *passCtx) Done() <-chan struct{} {
	if c.calls.Add(1) == c.at {
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

// manyBlocks is cond_mat_2003 at scale 0.02: 596 vertices in 43 blocks,
// one of them holding 386 vertices, and 39 articulation points.
func manyBlocks(t *testing.T) *graph.Graph {
	spec, err := datasets.ByName("cond_mat_2003")
	if err != nil {
		t.Fatal(err)
	}
	return spec.Generate(0.02, 1)
}

// cancelBetweenPasses: a context cancelled at the first, second, third or
// last of a build's Done calls returns its error and nothing built, for
// one block's fill and for a whole oracle over many blocks. Every
// ParallelForCtx asks Done once, so each block claimed and each batch
// started asks once. At one worker nothing asks after the cancel; at four,
// each other block in flight may ask once more, between two of its
// batches, and no block is claimed.
func cancelBetweenPasses(t *testing.T) {
	grid := gen.Grid(8, 8, gen.Config{MaxWeight: 5}, gen.NewRNG(3))
	many := manyBlocks(t)
	builds := map[string]func(context.Context, int) (bool, error){
		"fill": func(ctx context.Context, workers int) (bool, error) {
			a, err := apsp.NewEarAPSPParallelCtx(ctx, grid, workers)
			return a != nil, err
		},
		"oracle": func(ctx context.Context, workers int) (bool, error) {
			o, err := apsp.NewOracleParallelCtx(ctx, many, workers)
			return o != nil, err
		},
	}
	for name, build := range builds {
		for _, workers := range []int{1, 4} {
			count := newPassCtx(0)
			if _, err := build(count, workers); err != nil {
				t.Fatal(err)
			}
			last := count.calls.Load()
			if last < 4 {
				t.Fatalf("%s, %d workers: %d Done calls, want one per pass", name, workers, last)
			}
			for _, at := range []int32{1, 2, 3, last} {
				ctx := newPassCtx(at)
				built, err := build(ctx, workers)
				if built || !errors.Is(err, context.Canceled) {
					t.Fatalf("%s, %d workers, cancel at Done call %d of %d: built %v, err %v; want nothing and context.Canceled",
						name, workers, at, last, built, err)
				}
				if after := ctx.calls.Load() - at; after > int32(workers-1) {
					t.Fatalf("%s, %d workers, cancel at Done call %d of %d: %d Done calls after it, want at most %d",
						name, workers, at, last, after, workers-1)
				}
			}
		}
	}
}

// sameOracle fails unless got answers with want's bits: A, every block's
// S^r and Relaxations.
func sameOracle(t *testing.T, what string, got, want *apsp.Oracle) {
	t.Helper()
	if got.Relaxations != want.Relaxations || len(got.Blocks) != len(want.Blocks) {
		t.Fatalf("%s: %d relaxations over %d blocks, want %d over %d",
			what, got.Relaxations, len(got.Blocks), want.Relaxations, len(want.Blocks))
	}
	tables := [][2][]graph.Weight{{got.AEntries(), want.AEntries()}}
	for bi, b := range want.Blocks {
		tables = append(tables, [2][]graph.Weight{got.Blocks[bi].SREntries(), b.SREntries()})
	}
	for i, tab := range tables {
		if !slices.EqualFunc(tab[0], tab[1], func(x, y graph.Weight) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
			t.Fatalf("%s: table %d (0 is A, then each block's S^r) differs", what, i)
		}
	}
}

// TestOracleSameOnAnySchedule: blocks are solved concurrently, largest
// first, and the AP table's rows on several workers, yet the oracle and
// what both ApplyDelta paths make of it (a reweight, and a delete plus an
// insert) are bit-identical at 1, 2 and 8 workers, on every merge case
// and a many-block graph.
func TestOracleSameOnAnySchedule(t *testing.T) {
	graphs := []check.NamedGraph{{Name: "many-blocks", G: manyBlocks(t)}}
	for _, tc := range mergeCases() {
		graphs = append(graphs, tc.NamedGraph)
	}
	for _, ng := range graphs {
		m, n := ng.G.NumEdges(), int32(ng.G.NumVertices())
		if m == 0 {
			continue
		}
		scripts := [][]apsp.Delta{
			{{Kind: apsp.DeltaWeight, Edge: int32(m / 3), W: 7}},
			{{Kind: apsp.DeltaDelete, Edge: int32(m / 2)}, {Kind: apsp.DeltaInsert, U: 0, V: n - 1, W: 3}},
		}
		var ref []*apsp.Oracle
		var refRes []apsp.DeltaResult
		for _, workers := range []int{1, 2, 8} {
			o := apsp.NewOracleParallel(ng.G, workers)
			got, res := []*apsp.Oracle{o}, []apsp.DeltaResult(nil)
			for _, s := range scripts {
				d, r, err := o.ApplyDeltaParallel(context.Background(), s, workers)
				if err != nil {
					t.Fatalf("%s: %v", ng.Name, err)
				}
				got, res = append(got, d), append(res, *r)
			}
			if workers == 1 {
				ref, refRes = got, res
				continue
			}
			for i := range got {
				sameOracle(t, fmt.Sprintf("%s, %d workers, oracle %d (0 built, then each delta)", ng.Name, workers, i), got[i], ref[i])
			}
			if !slices.Equal(res, refRes) {
				t.Fatalf("%s, %d workers: delta results %+v, %+v at 1 worker", ng.Name, workers, res, refRes)
			}
		}
	}
}

// TestEarRowMatchesQuery holds the row sweep to Query, bit for bit, on
// every block of every merge case, of three scale-0.01 datasets and of
// blocks_m with every weight divided by 3, from every source, plus an
// all-Inf row for an out-of-range one; and every row to a Dijkstra on the
// block, within 1e-12 relative (merged rows add in another order), which
// a table rounded to float32 would miss by about 6e-8: S^r stays float64
// wherever one entry does not round-trip.
func TestEarRowMatchesQuery(t *testing.T) {
	graphs := map[string]*graph.Graph{}
	for _, tc := range mergeCases() {
		graphs[tc.Name] = tc.G
	}
	for _, name := range []string{"Wordnet3", "soc-sign-epinions", "cond_mat_2003"} {
		spec, err := datasets.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		graphs[name] = spec.Generate(0.01, 1)
	}
	spec, err := datasets.ByName("cond_mat_2003")
	if err != nil {
		t.Fatal(err)
	}
	g := spec.Generate(0.08, 1)
	graphs["blocks_m/3"] = reweight(g, func(i int) graph.Weight { return g.Edge(int32(i)).W / 3 })
	entries, wide := 0, 0
	for name, g := range graphs {
		o := apsp.NewOracle(g)
		for bi, b := range o.Blocks {
			ea := b
			if ea.SRKind() == "float64" {
				wide++
			}
			bg := graph.InducedByEdges(g, o.Dec.Components[bi]).G // what the block was built from
			n := int32(bg.NumVertices())
			row, ref, sc := make([]graph.Weight, n), make([]graph.Weight, n), sssp.NewScratch(int(n))
			for x := int32(-1); x <= n; x++ {
				ea.Row(x, row)
				if x >= 0 && x < n {
					sssp.DistancesOnly(bg, x, ref, sc)
				}
				for y := range n {
					if got, want := row[y], ea.Query(x, y); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s block %d: Row(%d)[%d] = %v, Query %v", name, bi, x, y, got, want)
					}
					if x >= 0 && x < n && math.Abs(row[y]-ref[y]) > 1e-12*ref[y] {
						t.Fatalf("%s block %d: Row(%d)[%d] = %v, Dijkstra %v", name, bi, x, y, row[y], ref[y])
					}
				}
				entries += int(n)
			}
		}
	}
	t.Logf("%d entries, %d float64 tables", entries, wide)
	if wide == 0 {
		t.Fatal("no S^r is float64: no row read a float64 table")
	}
}
