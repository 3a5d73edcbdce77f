package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/apsp"
	"repro/internal/bcc"
	"repro/internal/ear"
	"repro/internal/graph"
	"repro/internal/mcb"
	"repro/internal/shard"
	"repro/internal/sssp"
	"repro/internal/verify"
)

// The build workload is the paper's own pipeline, in-process, with
// workers = nproc: no daemon and none of the serving layers run. One
// operation is one pass over the whole pipeline — three oracle builds
// (many blocks, long chains, planar), a snapshot round trip, a shard plan
// and a minimum cycle basis — so every stage weighs on every end-to-end
// number in proportion to its time.

type buildInputs struct {
	blocks, chains, planar, cycles *graph.Graph
}

func generateBuildInputs() (*buildInputs, error) {
	var in buildInputs
	for _, f := range []struct {
		fx  fixture
		dst **graph.Graph
	}{{fxBlocksM, &in.blocks}, {fxChainsS, &in.chains}, {fxPlanarS, &in.planar}, {fxCyclesS, &in.cycles}} {
		g, err := f.fx.generate()
		if err != nil {
			return nil, err
		}
		*f.dst = g
	}
	return &in, nil
}

// pass is the stage times of one pass, in seconds, and what it produced.
type pass struct {
	buildBlocks, buildChains, buildPlanar float64
	write, read, plan, mcb                float64
	cpu                                   float64 // process CPU seconds inside the timed stages

	oBlocks   *apsp.Oracle
	snapBytes int
	basis     *mcb.Result
	shardPlan *shard.Plan
}

func (p *pass) buildS() float64 { return p.buildBlocks + p.buildChains + p.buildPlanar }
func (p *pass) total() float64  { return p.buildS() + p.write + p.read + p.plan + p.mcb }

// runPass runs and verifies one pass. Only the stages are timed; the
// checks between them are not.
func runPass(in *buildInputs, seed uint64, tr *tracer, req int) (*pass, error) {
	p := &pass{}
	root := 0
	if tr != nil {
		root = tr.begin("build.pass", 0, req)
		defer tr.end(root)
	}
	stage := func(name string, dst *float64, fn func() error) error {
		id := 0
		if tr != nil {
			id = tr.begin(name, root, req)
		}
		c0, t0 := selfCPU(), time.Now()
		err := fn()
		*dst = time.Since(t0).Seconds()
		p.cpu += selfCPU() - c0
		if tr != nil {
			tr.end(id)
		}
		return err
	}

	var oChains, oPlanar *apsp.Oracle
	stage("apsp.build blocks_m", &p.buildBlocks, func() error { p.oBlocks = apsp.NewOracleParallel(in.blocks, workers()); return nil })
	stage("apsp.build chains_s", &p.buildChains, func() error { oChains = apsp.NewOracleParallel(in.chains, workers()); return nil })
	stage("apsp.build planar_s", &p.buildPlanar, func() error { oPlanar = apsp.NewOracleParallel(in.planar, workers()); return nil })
	for _, c := range []struct {
		g *graph.Graph
		o *apsp.Oracle
	}{{in.blocks, p.oBlocks}, {in.chains, oChains}, {in.planar, oPlanar}} {
		if err := verify.OracleSample(c.g, c.o, 32); err != nil {
			return nil, err
		}
	}

	var buf bytes.Buffer
	if err := stage("snapshot.write", &p.write, func() error { _, err := p.oBlocks.WriteTo(&buf); return err }); err != nil {
		return nil, err
	}
	p.snapBytes = buf.Len()
	var back *apsp.Oracle
	if err := stage("snapshot.read", &p.read, func() (err error) { back, err = apsp.ReadOracle(bytes.NewReader(buf.Bytes())); return }); err != nil {
		return nil, err
	}
	n := in.blocks.NumVertices()
	for i := 0; i < 10000; i++ {
		r := newRNG(seed, "build/roundtrip", 0, i)
		u, v := r.intn(n), r.intn(n)
		if a, b := p.oBlocks.Query(u, v), back.Query(u, v); math.Float64bits(a) != math.Float64bits(b) {
			return nil, fmt.Errorf("snapshot round trip: d(%d,%d) = %v before, %v after", u, v, a, b)
		}
	}

	if err := stage("shard.plan", &p.plan, func() (err error) {
		p.shardPlan, err = shard.PlanShards(p.oBlocks, shard.PlanOptions{Shards: numShards})
		return
	}); err != nil {
		return nil, err
	}
	if err := stage("mcb.compute", &p.mcb, func() (err error) {
		p.basis, err = mcb.ComputeCtx(context.Background(), in.cycles, mcb.Options{UseEar: true, Workers: workers(), Seed: seed})
		return
	}); err != nil {
		return nil, err
	}
	if err := verify.CycleBasis(in.cycles, p.basis); err != nil {
		return nil, err
	}
	return p, nil
}

func runBuild(h *harness, cfg runConfig) (*outcome, error) {
	o := newOutcome()
	// Set-up is generating the inputs and one untimed pass, which leaves
	// the heap and the caches as every later pass finds them.
	reps := setupReps
	if cfg.traced {
		reps = 1
	}
	var in *buildInputs
	var setups []float64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		var err error
		if in, err = generateBuildInputs(); err != nil {
			return nil, err
		}
		if _, err := runPass(in, cfg.seed, nil, 0); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	o.setSegments("setup_s", setups)

	window := time.Duration(cfg.seconds * float64(time.Second))
	var tr *tracer
	if cfg.traced {
		window = min(window, segmentLen)
		tr = newTracer()
	}
	var passes []*pass
	steal0, t0 := hostSteal(), time.Now()
	for len(passes) == 0 || time.Since(t0) < window {
		// Every pass starts from a collected heap: where the collector
		// happened to be when a pass began moved the peak RSS by a quarter
		// from run to run.
		runtime.GC()
		p, err := runPass(in, cfg.seed, tr, len(passes)+1)
		if err != nil {
			o.attempted, o.failed = len(passes)+1, 1
			o.fail("pass %d: %v", len(passes)+1, err)
			return o, nil
		}
		if n := len(passes); n > 0 {
			// Only the last pass's products are looked at afterwards; kept
			// for every pass they would grow the heap with the pass count.
			passes[n-1].oBlocks, passes[n-1].basis, passes[n-1].shardPlan = nil, nil, nil
		}
		passes = append(passes, p)
	}
	o.attempted = len(passes)
	o.set("host.steal_share", (hostSteal()-steal0)/(time.Since(t0).Seconds()*float64(runtime.NumCPU())))

	of := func(f func(*pass) float64) []float64 {
		out := make([]float64, len(passes))
		for i, p := range passes {
			out[i] = f(p)
		}
		return out
	}
	// Every pass is a segment, and the end-to-end values are medians over
	// the passes: a pass runs on both processors for 0.4 s, and its time
	// scatters to both sides where a served second is only ever slowed.
	inverse := func(vs []float64) []float64 {
		out := make([]float64, len(vs))
		for i, v := range vs {
			out[i] = 1 / v
		}
		return out
	}
	totals := of((*pass).total)
	sorted := append([]float64(nil), totals...)
	sort.Float64s(sorted)
	ms := make([]float64, len(totals))
	for i, t := range totals {
		ms[i] = t * 1e3
	}
	o.setSegments("qps", inverse(totals))
	o.setSegments("p50_ms", ms)
	o.set("client.p95_ms", percentile(sorted, 0.95)*1e3)
	o.setSegments("qps_per_core", inverse(of(func(p *pass) float64 { return p.cpu })))
	rss, err := procPeakRSS(os.Getpid())
	if err != nil {
		return nil, err
	}
	o.set("rss_mb", rss)
	o.set("client.requests", float64(len(passes)))

	// The stage medians are reported in both passes; they are per-layer
	// metrics, so only the traced pass puts them on the result line.
	last := passes[len(passes)-1]
	buildS := median(of((*pass).buildS))
	o.set("apsp.build_s", buildS)
	o.set("apsp.mteps", mteps(in.blocks, median(of(func(p *pass) float64 { return p.buildBlocks }))))
	o.set("snapshot.write_s", median(of(func(p *pass) float64 { return p.write })))
	o.set("snapshot.load_s", median(of(func(p *pass) float64 { return p.read })))
	o.set("snapshot.bytes", float64(last.snapBytes))
	o.set("snapshot.read_mb_per_s", float64(last.snapBytes)/(1<<20)/o.values["snapshot.load_s"])
	o.set("shard.plan_ms", median(of(func(p *pass) float64 { return p.plan }))*1e3)
	o.set("mcb.compute_s", median(of(func(p *pass) float64 { return p.mcb })))
	o.note("%d passes; one pass = build %.0f ms + snapshot %.0f ms + plan %.1f ms + mcb %.0f ms",
		len(passes), buildS*1e3, (o.values["snapshot.write_s"]+o.values["snapshot.load_s"])*1e3,
		o.values["shard.plan_ms"], o.values["mcb.compute_s"]*1e3)
	if !cfg.traced {
		return o, nil
	}
	if err := buildLayers(h, in, last, o, tr); err != nil {
		return nil, err
	}
	path := filepath.Join(h.root, ".bench_build", "trace-build.json")
	if err := tr.write(path); err != nil {
		return nil, err
	}
	o.note("%d spans written to .bench_build/trace-build.json", len(tr.spans))
	return o, nil
}

// buildLayers takes the build side apart once: the phases the oracle
// itself timed, then BCC, the ear reduction of the largest block and
// Dijkstra on its reduced graph G^r called directly, the cycle basis's
// own phase breakdown, the paper's Fig. 2 baseline, and the shard files.
func buildLayers(h *harness, in *buildInputs, p *pass, o *outcome, tr *tracer) error {
	ob := p.oBlocks
	phases := 0.0
	for _, ph := range []string{"bcc", "blocks", "forest", "aptable"} {
		s := ob.BuildPhases.Get(ph).Seconds()
		o.set("apsp.build."+ph+"_s", s)
		phases += s
	}
	o.note("blocks_m: phases sum to %.1f ms of a %.1f ms build", phases*1e3, p.buildBlocks*1e3)
	o.set("apsp.relaxations", float64(ob.Relaxations))
	o.set("apsp.table_mb", tableMB(ob))
	o.set("apsp.nodes_removed_pct", 100*float64(ob.NodesRemoved())/float64(ob.NumVertices()))

	span := func(name string, fn func()) float64 {
		id := tr.begin(name, 0, 0)
		t0 := time.Now()
		fn()
		d := time.Since(t0).Seconds()
		tr.end(id)
		return d
	}
	var dec *bcc.Decomposition
	o.set("bcc.compute_ms", span("bcc.compute", func() { dec = bcc.Compute(in.blocks) })*1e3)
	o.set("bcc.blocks", float64(len(dec.Components)))
	largest := 0
	for i, c := range dec.Components {
		if len(c) > len(dec.Components[largest]) {
			largest = i
		}
	}
	sub := graph.InducedByEdges(in.blocks, dec.Components[largest])
	var red *ear.Reduced
	o.set("ear.reduce_ms", span("ear.reduce", func() { red = ear.Reduce(sub.G, ear.APSP) })*1e3)
	o.set("ear.removed", float64(red.NumRemoved()))
	nr := red.R.NumVertices()
	dist, sc := make([]graph.Weight, nr), sssp.NewScratch(nr)
	var us []float64
	var relax int64
	sources := min(nr, 256)
	for s := 0; s < sources; s++ {
		us = append(us, span("sssp.dijkstra", func() { relax += sssp.DistancesOnly(red.R, int32(s), dist, sc) })*1e6)
	}
	o.set("sssp.dijkstra_us", median(us))
	o.set("sssp.relax_per_source", float64(relax)/float64(sources))

	banerjee := span("apsp.banerjee chains_s", func() { apsp.NewBanerjee(in.chains, workers()) })
	o.set("apsp.banerjee_s", banerjee)
	o.set("apsp.speedup_vs_banerjee", banerjee/p.buildChains)

	o.set("mcb.tree_vs", p.basis.Phase.Tree)
	o.set("mcb.label_vs", p.basis.Phase.Label)
	o.set("mcb.search_vs", p.basis.Phase.Search)
	o.set("mcb.update_vs", p.basis.Phase.Update)
	o.set("mcb.candidates", float64(p.basis.NumCandidates))
	o.set("mcb.dim", float64(p.basis.Dim))

	var planBuf bytes.Buffer
	if _, err := p.shardPlan.WriteTo(&planBuf); err != nil {
		return err
	}
	o.set("shard.plan_bytes", float64(planBuf.Len()))
	dir, err := h.tempDir("build")
	if err != nil {
		return err
	}
	b := &built{fixture: fxBlocksM, g: in.blocks, o: ob}
	var cl *cluster
	span("snapshot.shard_write", func() { cl, err = b.writeCluster(dir) })
	if err != nil {
		return err
	}
	o.set("snapshot.shard_write_s", cl.writeS)
	return os.RemoveAll(dir)
}
