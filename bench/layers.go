package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/apsp"
	"repro/internal/graph"
	"repro/internal/qe"
	"repro/internal/registry"
	"repro/internal/shard"
)

// The traced pass gives the per-layer numbers. It never supplies an
// end-to-end number. It has three sources: spans the generator records
// around its own requests to the live daemon (ext), the change of the
// daemon's exported counters (stats, see reportStats), and a replay of
// the workload's own request sequence through the layers' public
// functions in this process, one span per call (in).

// rowSource is what both row sources of the engine offer.
type rowSource interface {
	qe.RowSource
	RowCost(int32) int64
}

// replayer replays requests through registry.Acquire → qe.Engine →
// row source, in one goroutine, recording a span around each call.
type replayer struct {
	tr    *tracer
	rg    *registry.Registry
	names []string // registry name of each tenant
	req   int      // current request id
	cur   int      // span the row source's spans hang under
}

// spanSource wraps a row source so that every row the engine builds is a
// span, a child of the engine call that asked for it.
type spanSource struct {
	rowSource
	rp   *replayer
	name string
}

func (s spanSource) Row(u int32, out []graph.Weight) int64 {
	id := s.rp.tr.begin(s.name, s.rp.cur, s.rp.req)
	defer s.rp.tr.end(id)
	return s.rowSource.Row(u, out)
}

// spanCtxSource is the same for a source that can fail: the engine then
// builds rows through RowCtx.
type spanCtxSource struct {
	spanSource
	ctx qe.CtxRowSource
}

func (s spanCtxSource) RowCtx(ctx context.Context, u int32, out []graph.Weight) (int64, error) {
	id := s.rp.tr.begin(s.name, s.rp.cur, s.rp.req)
	defer s.rp.tr.end(id)
	return s.ctx.RowCtx(ctx, u, out)
}

// newReplayer serves each oracle from an engine with the daemon's default
// limits, behind a static registry as a single-graph daemon builds it.
func newReplayer(tr *tracer, names []string, oracles []*apsp.Oracle) (*replayer, error) {
	rg, err := registry.Open(registry.Config{})
	if err != nil {
		return nil, err
	}
	rp := &replayer{tr: tr, rg: rg, names: names}
	for i, o := range oracles {
		rg.AddStatic(names[i], o, qe.New(spanSource{o, rp, "apsp.row"}, qe.Config{}))
	}
	return rp, nil
}

func (rp *replayer) close() { rp.rg.Close(context.Background()) }

// do replays one request: replay.request ⊃ registry.acquire, then
// qe.query (⊃ apsp.row or shard.rowctx on a miss), apsp.path, or qe.batch.
func (rp *replayer) do(rq request) error {
	ctx := context.Background()
	rp.req++
	root := rp.tr.begin("replay.request", 0, rp.req)
	defer rp.tr.end(root)
	id := rp.tr.begin("registry.acquire", root, rp.req)
	e, err := rp.rg.Acquire(ctx, rp.names[rq.tenant])
	rp.tr.end(id)
	if err != nil {
		return err
	}
	defer e.Release()
	if rq.kind == kindBatch {
		rp.cur = rp.tr.begin("qe.batch", root, rp.req)
		_, err = e.Engine().Batch(ctx, rq.sources, rq.targets)
		rp.tr.end(rp.cur)
		return err
	}
	rp.cur = rp.tr.begin("qe.query", root, rp.req)
	_, err = e.Engine().Query(ctx, rq.u, rq.v)
	rp.tr.end(rp.cur)
	if err == nil && rq.kind == kindPath {
		id := rp.tr.begin("apsp.path", root, rp.req)
		_, err = e.Oracle().PathChecked(rq.u, rq.v)
		rp.tr.end(id)
	}
	return err
}

const (
	replayBudget = 1500 * time.Millisecond // per replay loop
	microBatch   = 1024                    // calls under one span, for calls of under a microsecond
	microBatches = 32
)

// replaySequence replays the sequence as the daemon saw it, until the
// budget or max requests are spent.
func (rp *replayer) replaySequence(seq sequence, max int) error {
	t0 := time.Now()
	for i := 0; i < max && time.Since(t0) < replayBudget; i++ {
		if err := rp.do(seq(i)); err != nil {
			return fmt.Errorf("replay request %d: %w", i, err)
		}
	}
	return nil
}

// micro times calls that take well under a microsecond: a span around
// each batch of 1024 calls, the median batch divided by 1024, in ns.
func micro(tr *tracer, name string, call func(i int)) float64 {
	var per []float64
	for b := 0; b < microBatches; b++ {
		id := tr.begin(fmt.Sprintf("%s x%d", name, microBatch), 0, 0)
		t0 := time.Now()
		for i := 0; i < microBatch; i++ {
			call(b*microBatch + i)
		}
		d := time.Since(t0)
		tr.end(id)
		per = append(per, float64(d.Nanoseconds())/microBatch)
	}
	return median(per)
}

// traceReport fills in the per-layer metrics of a serving workload after
// its untraced and traced segments have run.
func (s serving) traceReport(h *harness, cfg runConfig, d *deployment, o *outcome, tr *tracer, untraced, traced []sample) error {
	correct := func(ss []sample) float64 {
		n := 0
		for _, sm := range ss {
			if sm.ok {
				n++
			}
		}
		return float64(n)
	}
	if u := correct(untraced); u > 0 {
		o.set("client.trace_overhead_pct", (u-correct(traced))/u*100)
	}
	o.set("oracled.ttfb_p50_us", median(tr.since(0, false)["client.wait"]))

	b := d.fixtures[0]
	o.set("apsp.table_mb", tableMB(b.o))
	o.set("apsp.nodes_removed_pct", 100*float64(b.o.NodesRemoved())/float64(b.o.NumVertices()))
	o.set("apsp.relaxations", float64(b.o.Relaxations))
	for _, ph := range []string{"bcc", "blocks", "forest", "aptable"} {
		o.set("apsp.build."+ph+"_s", b.o.BuildPhases.Get(ph).Seconds())
	}
	o.set("apsp.build_s", b.buildS)
	o.set("apsp.mteps", mteps(b.g, b.buildS))
	if b.snapPath != "" {
		o.set("snapshot.write_s", b.writeS)
		o.set("snapshot.bytes", float64(b.snapBytes))
	}
	serveLayers(tr, o, b.o, s.seq(cfg.seed, d))

	if err := s.layers(h, cfg, d, o, tr); err != nil {
		return err
	}
	path := filepath.Join(h.root, ".bench_build", "trace-"+s.name+".json")
	if err := tr.write(path); err != nil {
		return err
	}
	o.note("%d spans written to .bench_build/trace-%s.json", len(tr.spans), s.name)
	return nil
}

// tableMB is the oracle's distance tables under the paper's memory model.
func tableMB(o *apsp.Oracle) float64 {
	ours, _ := o.Memory().Bytes()
	return float64(ours) / (1 << 20)
}

// replayed closes a replay that began at mark: the median replayed
// request is what the daemon's HTTP layer is charged against — the
// workload's p50 minus it is oracled.http_self_us, which therefore also
// holds whatever the live run loses to the daemons, the generator and the
// garbage collector sharing two cores. It returns the spans' durations
// by name and notes each layer's self time.
func replayed(o *outcome, tr *tracer, mark int) map[string][]float64 {
	by := tr.since(mark, false)
	op := median(by["replay.request"])
	o.set("oracled.http_self_us", o.values["client.raw_p50_ms"]*1e3-op)
	self := tr.since(mark, true)
	line := fmt.Sprintf("replayed %d requests in-process, median %.1f us; median self times:", len(by["replay.request"]), op)
	for _, name := range []string{"registry.acquire", "qe.query", "qe.batch", "apsp.row", "apsp.path", "shard.rowctx"} {
		line += fmt.Sprintf(" %s %.1f us x%d;", name, median(self[name]), len(self[name]))
	}
	o.note("%s", line)
	return by
}

// mteps is the paper's Fig. 3 figure for an Õ(mn) problem: |E|·|V| edge
// visits per second, in millions.
func mteps(g *graph.Graph, seconds float64) float64 {
	return float64(g.NumEdges()) * float64(g.NumVertices()) / seconds / 1e6
}

// serveLayers times the serve-side calls every workload with a local
// oracle rests on, over the workload's own pairs: the O(1) table lookup,
// a warm engine query, and a registry acquire.
func serveLayers(tr *tracer, o *outcome, orc *apsp.Oracle, seq sequence) {
	// The pairs are generated first: hashing one costs more than a lookup.
	pairs := make([][2]int32, microBatch*microBatches)
	for i := range pairs {
		rq := seq(i)
		if rq.kind == kindBatch {
			rq.u, rq.v = rq.sources[0], rq.targets[0]
		}
		pairs[i] = [2]int32{rq.u, rq.v}
	}
	o.set("apsp.query_ns", micro(tr, "apsp.query", func(i int) { orc.Query(pairs[i][0], pairs[i][1]) }))
	rp, err := newReplayer(tr, []string{registry.DefaultGraph}, []*apsp.Oracle{orc})
	if err != nil {
		return
	}
	defer rp.close()
	o.set("registry.acquire_ns", micro(tr, "registry.acquire", func(int) {
		if e, err := rp.rg.Acquire(context.Background(), registry.DefaultGraph); err == nil {
			e.Release()
		}
	}))
	// A warm query needs its row cached: query from the hot set only.
	e, err := rp.rg.Acquire(context.Background(), registry.DefaultGraph)
	if err != nil {
		return
	}
	defer e.Release()
	n := orc.NumVertices()
	hot := make([]int32, hotSetSize)
	for i := range hot {
		hot[i] = pairs[i][0]
		e.Engine().Query(context.Background(), hot[i], 0)
	}
	o.set("qe.query_warm_ns", micro(tr, "qe.query_warm", func(i int) {
		e.Engine().Query(context.Background(), hot[i%hotSetSize], int32(i%n))
	}))
}

// pointLayers replays a point workload. Cold, a query is a row build:
// qe.query ⊃ apsp.row. Hot, it is a cache hit and apsp.row never runs.
func pointLayers(hot bool) func(*harness, runConfig, *deployment, *outcome, *tracer) error {
	return func(h *harness, cfg runConfig, d *deployment, o *outcome, tr *tracer) error {
		b := d.fixtures[0]
		rp, err := newReplayer(tr, []string{registry.DefaultGraph}, []*apsp.Oracle{b.o})
		if err != nil {
			return err
		}
		defer rp.close()
		n := b.g.NumVertices()
		seq := coldSequence(cfg.seed, n)
		if hot {
			seq = hotSequence(cfg.seed, n)
			// Warm the engine as the daemon was warmed before measuring.
			for i := 0; i < 20*hotSetSize; i++ {
				if err := rp.do(seq(i)); err != nil {
					return err
				}
			}
		}
		mark := tr.mark() // the warm-up's spans are not the workload's
		if err := rp.replaySequence(seq, 4000); err != nil {
			return err
		}
		by := replayed(o, tr, mark)
		if !hot {
			o.set("qe.query_cold_us", median(by["qe.query"]))
			o.set("apsp.row_us", median(by["apsp.row"]))
		}
		return nil
	}
}

// batchLayers replays the batch sequence (every batch builds 12 fresh
// rows through the hybrid scheduler), repeats one batch warm, and then
// runs phase B against the live daemon: one batch_matrix job streamed to
// completion.
func batchLayers(h *harness, cfg runConfig, d *deployment, o *outcome, tr *tracer) error {
	b := d.fixtures[0]
	rp, err := newReplayer(tr, []string{registry.DefaultGraph}, []*apsp.Oracle{b.o})
	if err != nil {
		return err
	}
	defer rp.close()
	seq := batchSequence(cfg.seed, b.g.NumVertices())
	mark := tr.mark()
	if err := rp.replaySequence(seq, 200); err != nil {
		return err
	}
	by := replayed(o, tr, mark)
	o.set("qe.batch_cold_ms", median(by["qe.batch"])/1e3)
	o.set("apsp.row_us", median(by["apsp.row"]))
	// The same batch again and again: its 12 rows stay cached.
	warm := seq(0)
	if err := rp.do(warm); err != nil {
		return err
	}
	mark = tr.mark()
	for i := 0; i < 50; i++ {
		if err := rp.do(warm); err != nil {
			return err
		}
	}
	o.set("qe.batch_warm_us", median(tr.since(mark, false)["qe.batch"]))
	return jobPhase(d, o)
}

const jobSources = 512

// jobPhase submits one batch_matrix job of 512 sources × all targets and
// follows its NDJSON stream to the end, checking every row.
func jobPhase(d *deployment, o *outcome) error {
	tn := d.tenants[0]
	n := tn.g.NumVertices()
	perm := permutation(7, "batch_rows/job", n)
	spec := map[string]interface{}{"kind": "batch_matrix", "sources": perm[:jobSources]}
	var st struct {
		ID string `json:"id"`
	}
	t0 := time.Now()
	if err := postJSON(http.DefaultClient, d.front.url+"/v1/jobs", spec, &st); err != nil {
		return err
	}
	resp, err := http.Get(d.front.url + "/v1/jobs/" + st.ID + "/results")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("job results: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	rows, size := 0, 0
	var firstRow time.Duration
	for sc.Scan() {
		if rows == 0 {
			firstRow = time.Since(t0)
		}
		size += len(sc.Bytes()) + 1
		var row struct {
			I      int       `json:"i"`
			Source int32     `json:"source"`
			Dist   []float64 `json:"dist"`
		}
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil || row.I != rows || row.Source != perm[rows] || len(row.Dist) != n {
			o.fail("job row %d is malformed (err %v)", rows, err)
			return nil
		}
		// Every 64th entry of every row against the reference.
		for v := rows % 64; v < n; v += 64 {
			if err := tn.checkDistance(row.Source, int32(v), row.Dist[v] >= 0, row.Dist[v]); err != nil {
				o.fail("job row %d: %v", rows, err)
				return nil
			}
		}
		rows++
	}
	total := time.Since(t0)
	if err := sc.Err(); err != nil {
		return err
	}
	if rows != jobSources {
		o.fail("job streamed %d rows, want %d", rows, jobSources)
	}
	o.set("jobs.rows_per_s", float64(rows)/total.Seconds())
	o.set("jobs.submit_to_first_row_ms", firstRow.Seconds()*1e3)
	o.set("jobs.result_bytes", float64(size))
	// The job ran after the counters were scraped; count it here.
	o.set("jobs.completed", o.values["jobs.completed"]+1)
	delete(o.absent, "jobs.completed")
	return nil
}

// clusterLayers rebuilds the frontend in-process: a RemoteSource whose
// shards are shard.Handlers on httptest servers over the same shard
// snapshots, behind the same engine. It also times one row RPC against a
// live shard daemon from outside.
func clusterLayers(h *harness, cfg runConfig, d *deployment, o *outcome, tr *tracer) error {
	b, cl := d.fixtures[0], d.cluster
	o.set("shard.plan_ms", cl.planS*1e3)
	if fi, err := os.Stat(cl.planPath); err == nil {
		o.set("shard.plan_bytes", float64(fi.Size()))
	}
	o.set("snapshot.shard_write_s", cl.writeS)

	var addrs []string
	for _, p := range cl.shardPaths {
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		sb, err := apsp.ReadShardSnapshot(bufio.NewReader(f))
		f.Close()
		if err != nil {
			return err
		}
		mux := http.NewServeMux()
		shard.NewHandler(sb).Register(mux)
		srv := httptest.NewServer(mux)
		defer srv.Close()
		addrs = append(addrs, srv.URL)
	}
	src, err := shard.NewRemoteSource(shard.SourceConfig{Plan: cl.plan, Addrs: addrs})
	if err != nil {
		return err
	}
	defer src.Close()
	rg, err := registry.Open(registry.Config{})
	if err != nil {
		return err
	}
	rp := &replayer{tr: tr, rg: rg, names: []string{registry.DefaultGraph}}
	defer rp.close()
	rg.AddRemote(registry.DefaultGraph, qe.New(spanCtxSource{spanSource{src, rp, "shard.rowctx"}, src}, qe.Config{}), cl.plan.NumVertices)
	mark := tr.mark()
	if err := rp.replaySequence(coldSequence(cfg.seed, b.g.NumVertices()), 400); err != nil {
		return err
	}
	by := replayed(o, tr, mark)
	o.set("qe.query_cold_us", median(by["qe.query"]))
	o.set("shard.rowctx_us", median(by["shard.rowctx"]))

	// One row RPC per call against the live shard that owns the source's
	// home block: what a pair-granular fetch would cost per block.
	var lat []float64
	seq := coldSequence(cfg.seed, b.g.NumVertices())
	for i := 0; i < 200; i++ {
		u := seq(i).u
		blk := cl.plan.BlockOf[u]
		if blk < 0 {
			continue
		}
		body, _ := json.Marshal(map[string]interface{}{"epoch": cl.plan.Epoch, "rows": [][2]int32{{blk, u}}})
		id := tr.begin("shard.rows_rpc", 0, 0)
		t0 := time.Now()
		resp, err := http.Post(d.daemons[cl.plan.BlockShard[blk]].url+"/internal/rows", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		lat = append(lat, float64(time.Since(t0).Microseconds()))
		tr.end(id)
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("/internal/rows: status %d: %.200s", resp.StatusCode, buf.Bytes())
		}
	}
	o.set("shard.rows_rpc_us", median(lat))
	return nil
}

// mixedLayers replays the mixed sequence over both tenants and times the
// two delta scripts of the writer with ApplyDelta.
func mixedLayers(h *harness, cfg runConfig, d *deployment, o *outcome, tr *tracer) error {
	names := []string{d.fixtures[0].name, d.fixtures[1].name}
	rp, err := newReplayer(tr, names, []*apsp.Oracle{d.fixtures[0].o, d.fixtures[1].o})
	if err != nil {
		return err
	}
	defer rp.close()
	seq := mixedSequence(cfg.seed, []int{d.fixtures[0].g.NumVertices(), d.fixtures[1].g.NumVertices()})
	mark := tr.mark()
	if err := rp.replaySequence(seq, 4000); err != nil {
		return err
	}
	by := replayed(o, tr, mark)
	o.set("apsp.path_us", median(by["apsp.path"]))
	o.set("apsp.row_us", median(by["apsp.row"]))
	o.set("registry.hydrate_ms", d.firstMS[0])

	deltaMS := func(orc *apsp.Oracle, edge int32, name string) (float64, error) {
		var ms []float64
		for k := 0; k < 5; k++ {
			ds := []apsp.Delta{{Kind: apsp.DeltaWeight, Edge: edge, W: orc.G.Edge(edge).W + float64(1+k%2)}}
			id := tr.begin(name, 0, 0)
			t0 := time.Now()
			next, _, err := orc.ApplyDelta(context.Background(), ds)
			ms = append(ms, time.Since(t0).Seconds()*1e3)
			tr.end(id)
			if err != nil {
				return 0, err
			}
			orc = next
		}
		return median(ms), nil
	}
	small, err := deltaMS(d.fixtures[0].o, smallBlockEdge(d.fixtures[0].o), "apsp.delta_small")
	if err != nil {
		return err
	}
	big, err := deltaMS(d.fixtures[1].o, largestBlockEdge(d.fixtures[1].o), "apsp.delta_big")
	if err != nil {
		return err
	}
	o.set("apsp.delta_small_ms", small)
	o.set("apsp.delta_big_ms", big)
	return nil
}
