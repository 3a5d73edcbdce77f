package repro

// One benchmark per table and figure of the paper's evaluation, plus the
// ablation benches DESIGN.md calls out. The benchmarks run the same
// harness code as cmd/earbench at a reduced scale so `go test -bench=.`
// stays tractable; cmd/earbench regenerates the full tables at any scale.

import (
	"cmp"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/apsp"
	"repro/internal/bc"
	"repro/internal/bcc"
	"repro/internal/datasets"
	"repro/internal/ear"
	"repro/internal/exp"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/hetero"
	"repro/internal/mcb"
	"repro/internal/sssp"
)

const (
	benchScale    = 0.01
	benchMCBScale = 0.012
	benchSeed     = 1
)

// BenchmarkTable1 regenerates the dataset-structure analysis of Table 1:
// BCC decomposition, ear reduction, and the memory model for every
// dataset.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := exp.RunTable1(benchScale, benchSeed)
		if len(rows) != 15 {
			b.Fatal("wrong row count")
		}
	}
}

// fig2Graphs returns one general and one planar dataset at bench scale —
// representative bars of Figures 2 and 3.
func fig2Graphs(b *testing.B) (general, planar *graph.Graph) {
	b.Helper()
	gSpec, err := datasets.ByName("as-22july06")
	if err != nil {
		b.Fatal(err)
	}
	pSpec, err := datasets.ByName("Planar_3")
	if err != nil {
		b.Fatal(err)
	}
	return gSpec.Generate(benchScale*2, benchSeed), pSpec.Generate(benchScale*2, benchSeed)
}

// BenchmarkFig2OursGeneral measures the paper's APSP (build + block-table
// post-processing) on a general graph — the "Our Approach" bar of Figure 2.
func BenchmarkFig2OursGeneral(b *testing.B) {
	g, _ := fig2Graphs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := apsp.NewOracle(g)
		exp.StreamBlockRows(o)
	}
}

// BenchmarkFig2Banerjee measures the Banerjee baseline on the same graph.
func BenchmarkFig2Banerjee(b *testing.B) {
	g, _ := fig2Graphs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := apsp.NewBanerjee(g, 1)
		exp.StreamBlockRows(o)
	}
}

// BenchmarkFig2OursPlanar and BenchmarkFig2Djidjev are the planar pair of
// Figure 2.
func BenchmarkFig2OursPlanar(b *testing.B) {
	_, g := fig2Graphs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := apsp.NewOracle(g)
		exp.StreamBlockRows(o)
	}
}

func BenchmarkFig2Djidjev(b *testing.B) {
	_, g := fig2Graphs(b)
	n := g.NumVertices()
	buf := make([]graph.Weight, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := exp.NewDjidjev(g, 8, 1)
		for s := 0; s < n; s++ {
			d.Row(int32(s), buf)
		}
	}
}

// BenchmarkFig3MTEPS reports the paper's scalability metric (Figure 3) as
// a custom benchmark metric for the ear APSP on the general graph.
func BenchmarkFig3MTEPS(b *testing.B) {
	g, _ := fig2Graphs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := apsp.NewOracle(g)
		exp.StreamBlockRows(o)
	}
	secPerOp := float64(b.Elapsed().Nanoseconds()) / 1e9 / float64(b.N)
	b.ReportMetric(float64(g.NumEdges())*float64(g.NumVertices())/secPerOp/1e6, "MTEPS")
}

// BenchmarkTable2 runs the MCB measurement of Table 2 (four platforms,
// with/without ear) on one representative dataset per iteration.
func BenchmarkTable2(b *testing.B) {
	spec, err := datasets.ByName("as-22july06")
	if err != nil {
		b.Fatal(err)
	}
	g := spec.Generate(benchMCBScale, benchSeed)
	for _, useEar := range []bool{true, false} {
		name := "with-ear"
		if !useEar {
			name = "without-ear"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := mcb.Compute(g, mcb.Options{UseEar: useEar, Seed: benchSeed})
				if res.Dim == 0 {
					b.Fatal("degenerate basis")
				}
				for _, p := range []mcb.Platform{mcb.Sequential, mcb.Multicore, mcb.GPU, mcb.Heterogeneous} {
					res.Price(p)
				}
			}
		})
	}
}

// BenchmarkFig5 and BenchmarkFig6 exercise the platform comparison of
// Figures 5 and 6: a single MCB execution priced on all four device
// models, reporting the heterogeneous speedup as a metric.
func BenchmarkFig5(b *testing.B) {
	spec, err := datasets.ByName("c-50")
	if err != nil {
		b.Fatal(err)
	}
	g := spec.Generate(benchMCBScale, benchSeed)
	var speedup float64
	for i := 0; i < b.N; i++ {
		res := mcb.Compute(g, mcb.Options{UseEar: true, Seed: benchSeed})
		speedup = res.Price(mcb.Sequential).Total() / res.Price(mcb.Heterogeneous).Total()
	}
	b.ReportMetric(speedup, "hetero-speedup")
}

func BenchmarkFig6(b *testing.B) {
	spec, err := datasets.ByName("nopoly")
	if err != nil {
		b.Fatal(err)
	}
	g := spec.Generate(benchMCBScale, benchSeed)
	var sim float64
	for i := 0; i < b.N; i++ {
		res := mcb.Compute(g, mcb.Options{UseEar: true, Platform: mcb.Heterogeneous, Seed: benchSeed})
		sim = res.SimSeconds
	}
	b.ReportMetric(sim, "virtual-sec")
}

// --- Ablations -----------------------------------------------------------

// BenchmarkAblationReducedDijkstra vs BenchmarkAblationFullDijkstra isolate
// the processing-phase gain of the ear reduction: per-source Dijkstra on
// G^r versus on G.
func BenchmarkAblationReducedDijkstra(b *testing.B) {
	g := ablationGraph()
	red := ear.Reduce(g, ear.APSP)
	r := red.R
	sc := sssp.NewScratch(r.NumVertices())
	dist := make([]graph.Weight, r.NumVertices())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := int32(0); s < int32(r.NumVertices()); s++ {
			sssp.DistancesOnly(r, s, dist, sc)
		}
	}
}

func BenchmarkAblationFullDijkstra(b *testing.B) {
	g := ablationGraph()
	sc := sssp.NewScratch(g.NumVertices())
	dist := make([]graph.Weight, g.NumVertices())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := int32(0); s < int32(g.NumVertices()); s++ {
			sssp.DistancesOnly(g, s, dist, sc)
		}
	}
}

func ablationGraph() *graph.Graph {
	cfg := gen.Config{MaxWeight: 20}
	rng := gen.NewRNG(5)
	return gen.Subdivide(gen.GNM(300, 500, cfg, rng), 0.7, 4, cfg, rng)
}

// BenchmarkAblationFVSRoots vs AllRoots: the Horton-root restriction of
// Section 3.2.
func BenchmarkAblationFVSRoots(b *testing.B) {
	g := smallMCBGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mcb.Compute(g, mcb.Options{UseEar: true, AllRoots: false, Seed: 3})
	}
}

func BenchmarkAblationAllRoots(b *testing.B) {
	g := smallMCBGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mcb.Compute(g, mcb.Options{UseEar: true, AllRoots: true, Seed: 3})
	}
}

func smallMCBGraph() *graph.Graph {
	cfg := gen.Config{MaxWeight: 15}
	rng := gen.NewRNG(9)
	return gen.Subdivide(gen.GNM(120, 220, cfg, rng), 0.5, 2, cfg, rng)
}

// BenchmarkAblationDequeBatch measures scheduling quality versus batch
// size: bigger GPU batches amortise launches but skew the split.
func BenchmarkAblationDequeBatch(b *testing.B) {
	units := make([]hetero.Unit, 2000)
	for i := range units {
		units[i] = hetero.Unit{ID: int32(i), Size: int64(1 + i%17)}
	}
	for _, batch := range []int{16, 256, 1024} {
		b.Run(sizeName(batch), func(b *testing.B) {
			gpu := hetero.TeslaK40c()
			gpu.BatchSize = batch
			devs := []*hetero.Device{hetero.MulticoreCPU(), gpu}
			var makespan float64
			for i := 0; i < b.N; i++ {
				sched := hetero.Run(units, devs, func(u hetero.Unit, d *hetero.Device) hetero.Cost {
					return hetero.Cost{Ops: u.Size * 1000, Launches: 1}
				})
				makespan = sched.Makespan
			}
			b.ReportMetric(makespan*1e3, "virtual-ms")
		})
	}
}

func sizeName(n int) string {
	switch n {
	case 16:
		return "batch16"
	case 256:
		return "batch256"
	default:
		return "batch1024"
	}
}

// BenchmarkAblationSortedDeque compares size-sorted against unsorted
// work-unit order (the paper sorts so the GPU starts on the biggest
// units).
func BenchmarkAblationSortedDeque(b *testing.B) {
	skewed := make([]hetero.Unit, 1500)
	for i := range skewed {
		size := int64(1)
		if i%100 == 0 {
			size = 500 // a few huge units
		}
		skewed[i] = hetero.Unit{ID: int32(i), Size: size}
	}
	devs := func() []*hetero.Device {
		return []*hetero.Device{hetero.MulticoreCPU(), hetero.TeslaK40c()}
	}
	b.Run("size-sorted", func(b *testing.B) {
		var m float64
		for i := 0; i < b.N; i++ {
			sched := hetero.Run(skewed, devs(), func(u hetero.Unit, d *hetero.Device) hetero.Cost {
				return hetero.Cost{Ops: u.Size * 10000, Launches: 1}
			})
			m = sched.Makespan
		}
		b.ReportMetric(m*1e3, "virtual-ms")
	})
	b.Run("size-blind", func(b *testing.B) {
		blind := make([]hetero.Unit, len(skewed))
		for i, u := range skewed {
			blind[i] = hetero.Unit{ID: u.ID, Size: 1} // hide sizes from the deque
		}
		real := make(map[int32]int64, len(skewed))
		for _, u := range skewed {
			real[u.ID] = u.Size
		}
		var m float64
		for i := 0; i < b.N; i++ {
			sched := hetero.Run(blind, devs(), func(u hetero.Unit, d *hetero.Device) hetero.Cost {
				return hetero.Cost{Ops: real[u.ID] * 10000, Launches: 1}
			})
			m = sched.Makespan
		}
		b.ReportMetric(m*1e3, "virtual-ms")
	})
}

// BenchmarkAblationBCDecomposed vs BCFlat: the block-decomposition gain on
// betweenness centrality — the paper's blueprint transplanted to a third
// path problem.
func BenchmarkAblationBCDecomposed(b *testing.B) {
	g := bcGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bc.Decomposed(g, 1)
	}
}

func BenchmarkAblationBCFlat(b *testing.B) {
	g := bcGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bc.Parallel(g, 1)
	}
}

func bcGraph() *graph.Graph {
	cfg := gen.Config{MaxWeight: 5}
	rng := gen.NewRNG(17)
	blocks := make([]*graph.Graph, 15)
	for i := range blocks {
		blocks[i] = gen.GNM(40, 70, cfg, rng)
	}
	return gen.AttachPendants(gen.ChainBlocks(blocks, cfg, rng), 100, 3, cfg, rng)
}

// BenchmarkEarReduction measures the preprocessing stage alone.
func BenchmarkEarReduction(b *testing.B) {
	g := ablationGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		red := ear.Reduce(g, ear.APSP)
		if red.NumRemoved() == 0 {
			b.Fatal("nothing reduced")
		}
	}
}

// BenchmarkOracleQuery measures post-processing query latency.
func BenchmarkOracleQuery(b *testing.B) {
	g := ablationGraph()
	o := apsp.NewOracle(g)
	n := int32(g.NumVertices())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := int32(i) % n
		v := (u*7 + 13) % n
		o.Query(u, v)
	}
}

// --- SSSP kernel benches ---------------------------------------------------

// BenchmarkSSSPHeap is the single-source kernel on the ablation graph's
// reduced graph (the processing phase's unit of work).
func BenchmarkSSSPHeap(b *testing.B) {
	r, dist, sc := ssspHeapSetup()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sssp.DistancesOnly(r, int32(i%r.NumVertices()), dist, sc)
	}
}

// ssspHeapSetup is BenchmarkSSSPHeap's set-up: the ablation graph's
// reduced graph, a distance row and a Scratch for it.
func ssspHeapSetup() (*graph.Graph, []graph.Weight, *sssp.Scratch) {
	r := ear.Reduce(ablationGraph(), ear.APSP).R
	return r, make([]graph.Weight, r.NumVertices()), sssp.NewScratch(r.NumVertices())
}

// TestSSSPHeapZeroAllocs is BenchmarkSSSPHeap's 0 allocs/op as a test.
func TestSSSPHeapZeroAllocs(t *testing.T) {
	r, dist, sc := ssspHeapSetup()
	src := int32(0)
	if allocs := testing.AllocsPerRun(20, func() {
		sssp.DistancesOnly(r, src, dist, sc)
		src = (src + 1) % int32(r.NumVertices())
	}); allocs != 0 {
		t.Fatalf("DistancesOnly on the ablation graph allocates %v times per source", allocs)
	}
}

// BenchmarkDistancesOnly is the build's inner loop on the instance the
// `build` workload spends its time in: per-source Dijkstra on the reduced
// graph G^r of the largest block of blocks_m (cond_mat_2003 at scale 0.08),
// with a warm Scratch. It reports ns per relaxation and must not allocate.
func BenchmarkDistancesOnly(b *testing.B) {
	r := ear.Reduce(largestBlockM(b), ear.APSP).R
	n := r.NumVertices()
	sc := sssp.NewScratch(n)
	dist := make([]graph.Weight, n)
	sssp.DistancesOnly(r, 0, dist, sc)
	var relax int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		relax += sssp.DistancesOnly(r, int32(i%n), dist, sc)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(relax), "ns/relax")
}

// largestBlockM is the largest biconnected block of blocks_m
// (cond_mat_2003 at scale 0.08), the block the build spends its time in.
func largestBlockM(tb testing.TB) *graph.Graph {
	return slices.MaxFunc(blocksM(tb), func(g, h *graph.Graph) int { return cmp.Compare(g.NumEdges(), h.NumEdges()) })
}

// blocksM returns the graph of every block of blocks_m, cond_mat_2003 at
// scale 0.08.
func blocksM(tb testing.TB) []*graph.Graph {
	tb.Helper()
	spec, err := datasets.ByName("cond_mat_2003")
	if err != nil {
		tb.Fatal(err)
	}
	g := spec.Generate(0.08, 1)
	dec := bcc.Compute(g)
	blocks := make([]*graph.Graph, len(dec.Components))
	for i, c := range dec.Components {
		blocks[i] = graph.InducedByEdges(g, c).G
	}
	return blocks
}

// BenchmarkEarReduce is the ear reduction a build and every snapshot load
// run per block: every block of blocks_m in APSP mode, then the largest in
// MCB mode. Each reduction allocates a fixed number of times, whatever its
// chain count (ear.TestReduceAllocsFixed); CI gates the sum.
func BenchmarkEarReduce(b *testing.B) {
	blocks, largest := blocksM(b), largestBlockM(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range blocks {
			ear.Reduce(g, ear.APSP)
		}
		ear.Reduce(largest, ear.MCB)
	}
}

// BenchmarkEarAPSPFill is the whole of Algorithm 1 on that block at one
// worker: the ear reduction and the fill of S^r, a row-bounded Dijkstra
// from every source of G^r that stops at the rows finished in earlier
// batches and merges them. It reports ns per row of S^r; its allocations
// are fixed (the square the searches fill, the packed table, the
// reduction and the fill's state, which TestEarAPSPFillAllocs pins).
func BenchmarkEarAPSPFill(b *testing.B) {
	g := largestBlockM(b)
	nr := ear.Reduce(g, ear.APSP).R.NumVertices()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		apsp.NewEarAPSP(g)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nr), "ns/row")
}

// TestEarAPSPFillAllocs pins the fill's allocations exactly: a flat
// table over that block's G^r is the identity reduction (5), the EarAPSP,
// the square the searches fill, the triangle it is packed into and the
// triangle's slice header, which the table interface holds (4) and
// the fill's state, allocated once per worker or once per fill, never per
// batch. The ear reduction is left out, and the
// collector is off while it counts: a GC cycle runs the unique package's
// map cleanup, which allocates on whichever run it lands.
func TestEarAPSPFillAllocs(t *testing.T) {
	r := ear.Reduce(largestBlockM(t), ear.APSP).R
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const want = 20
	if fill := testing.AllocsPerRun(3, func() { apsp.NewFlatAPSP(r, 1) }); fill != want {
		t.Fatalf("the fill of %d reduced rows allocates %v times, want %d", r.NumVertices(), fill, want)
	}
}

// BenchmarkAblationSignedSearch vs LabelledSearch: the two minimum-cycle
// searches of Sections 3.2.1 and 3.3.2.
func BenchmarkAblationLabelledSearch(b *testing.B) {
	g := signedAblationGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mcb.Compute(g, mcb.Options{UseEar: true, Seed: 5})
	}
}

func BenchmarkAblationSignedSearch(b *testing.B) {
	g := signedAblationGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mcb.Compute(g, mcb.Options{UseEar: true, SignedSearch: true, Seed: 5})
	}
}

func signedAblationGraph() *graph.Graph {
	cfg := gen.Config{MaxWeight: 10}
	rng := gen.NewRNG(23)
	return gen.GNM(60, 110, cfg, rng)
}
