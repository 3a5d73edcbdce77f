package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/apsp"
	"repro/internal/qe"
)

// workload is one named workload of BENCHMARK.json.
type workload struct {
	name string
	run  func(h *harness, cfg runConfig) (*outcome, error)
}

// The names are final: issues and reviews refer to them. BENCHMARK.json
// lists point_hot, point_cold and build, which the driver gates;
// batch_rows, cluster_point and mixed_rw run with them under
// `go run -C bench .` and by name, ungated (see README.md).
//
// The sensitivities are measured (README.md, "The reference"): point_hot's
// and point_cold's as the slope of log throughput on log speed of the box
// over sweeps and half-hour runs that met the host's slow minutes;
// batch_rows and cluster_point build rows as point_cold does and take its.
var workloads = []workload{
	{"point_hot", serving{
		name: "point_hot", sensitivity: 1, deploy: deploySingle, check: checkHot, layers: pointLayers(true),
		seq: func(seed uint64, d *deployment) sequence { return hotSequence(seed, d.tenants[0].g.NumVertices()) },
	}.run},
	{"point_cold", serving{
		name: "point_cold", sensitivity: rowSensitivity, deploy: deploySingle, check: checkCold, layers: pointLayers(false), warmRequests: fillCache,
		seq: func(seed uint64, d *deployment) sequence { return coldSequence(seed, d.tenants[0].g.NumVertices()) },
	}.run},
	{"batch_rows", serving{
		name: "batch_rows", sensitivity: rowSensitivity, deploy: deployJobs, layers: batchLayers, warmRequests: fillCache / batchSources, rowsPerRequest: batchSources,
		seq: func(seed uint64, d *deployment) sequence { return batchSequence(seed, d.tenants[0].g.NumVertices()) },
	}.run},
	{"cluster_point", serving{
		name: "cluster_point", sensitivity: rowSensitivity, deploy: deployCluster, check: checkCluster, layers: clusterLayers, warmRequests: fillCache,
		seq: func(seed uint64, d *deployment) sequence { return coldSequence(seed, d.tenants[0].g.NumVertices()) },
	}.run},
	{"mixed_rw", serving{
		name: "mixed_rw", rate: mixedRate, clients: 2, spread: true, deploy: deployRegistry, writer: mixedWriter, check: checkMixed, layers: mixedLayers,
		seq: func(seed uint64, d *deployment) sequence {
			return mixedSequence(seed, []int{d.tenants[0].g.NumVertices(), d.tenants[1].g.NumVertices()})
		},
	}.run},
	{"build", runBuild},
}

// rowSensitivity is the sensitivity of a workload whose requests build
// distance rows: about half of such a request is arithmetic on data the
// processor's own caches hold, which the host's slow minutes barely touch.
const rowSensitivity = 0.55

// fillCache is how many fresh rows a cold workload asks for before it is
// measured: the capacity of the daemon's row cache and a little more.
// While the cache fills the daemon's heap grows by a row per request, and
// throughput dips by a fifth when it reaches capacity; after that every
// miss reuses an evicted row's buffer and the workload is stationary.
const fillCache = qe.DefaultCacheRows + 256

// mixedRate is the fixed open-loop rate of mixed_rw. At 800 req/s the
// daemon uses a third of the 2-core reference box and the generator sends
// a median 0.1 ms after the due time. Lower rates are less steady, not
// more: at 100 to 400 req/s the virtual processors halt between requests,
// and what a request then waits for most is a processor waking up, which
// took between one and three times as long from one run to the next.
const mixedRate = 800

// newDeployment builds the fixtures into a fresh directory.
func newDeployment(h *harness, fxs ...fixture) (*deployment, error) {
	dir, err := h.tempDir("deploy")
	if err != nil {
		return nil, err
	}
	d := &deployment{dir: dir}
	for _, f := range fxs {
		b, err := buildFixture(f)
		if err != nil {
			return nil, err
		}
		d.fixtures = append(d.fixtures, b)
	}
	return d, nil
}

func (d *deployment) addTenant(prefix string, b *built) {
	d.tenants = append(d.tenants, &tenant{prefix: prefix, g: b.g, ref: b.o})
}

func (d *deployment) boot(h *harness, health string, args ...string) (*daemon, error) {
	dm, err := h.start(health, args...)
	if err != nil {
		return nil, err
	}
	d.daemons = append(d.daemons, dm)
	return dm, nil
}

// deploySingle is the single-graph boot mode: -load-snapshot blocks.
func deploySingle(h *harness) (*deployment, error) {
	return deploySnapshot(h, false)
}

// deployJobs is the same with the async job tier enabled.
func deployJobs(h *harness) (*deployment, error) {
	return deploySnapshot(h, true)
}

func deploySnapshot(h *harness, jobs bool) (*deployment, error) {
	d, err := newDeployment(h, fxBlocks)
	if err != nil {
		return nil, err
	}
	b := d.fixtures[0]
	if err := b.writeSnapshot(d.dir); err != nil {
		return nil, err
	}
	args := []string{"-load-snapshot", b.snapPath}
	if jobs {
		args = append(args, "-jobs-dir", filepath.Join(d.dir, "jobs"))
	}
	d.front, err = d.boot(h, "/v1/healthz", args...)
	d.addTenant("/v1", b)
	return d, err
}

// deployCluster is the two remaining boot modes together: two shard
// daemons over a block-cut plan of blocks, and the frontend routing to
// them.
func deployCluster(h *harness) (*deployment, error) {
	d, err := newDeployment(h, fxBlocks)
	if err != nil {
		return nil, err
	}
	b := d.fixtures[0]
	if d.cluster, err = b.writeCluster(d.dir); err != nil {
		return nil, err
	}
	var urls []string
	for _, p := range d.cluster.shardPaths {
		dm, err := d.boot(h, "/internal/health", "-shard-snapshot", p)
		if err != nil {
			return nil, err
		}
		urls = append(urls, dm.url)
	}
	d.front, err = d.boot(h, "/v1/healthz", "-cluster-plan", d.cluster.planPath, "-cluster-shards", strings.Join(urls, ","))
	d.addTenant("/v1", b)
	return d, err
}

// deployRegistry is the multi-tenant boot mode: -snapshot-dir with the
// tenants blocks and chains_xs, hydrated lazily on their first request.
func deployRegistry(h *harness) (*deployment, error) {
	d, err := newDeployment(h, fxBlocks, fxChainsXS)
	if err != nil {
		return nil, err
	}
	snaps := filepath.Join(d.dir, "snaps")
	if err := os.Mkdir(snaps, 0o755); err != nil {
		return nil, err
	}
	for _, b := range d.fixtures {
		if err := b.writeSnapshot(snaps); err != nil {
			return nil, err
		}
		d.addTenant("/v1/graphs/"+b.name, b)
		d.tenants[len(d.tenants)-1].structural = true
	}
	d.front, err = d.boot(h, "/v1/healthz", "-snapshot-dir", snaps)
	return d, err
}

// checkHot: after warm-up the 64 hot rows are cached, so a run that
// builds rows is not measuring the per-request overhead it exists for.
func checkHot(d *deployment, o *outcome, diff statsDiff) {
	if r, ok := o.values["qe.cache.hit_ratio"]; ok && r < 0.99 {
		o.fail("point_hot: row cache hit ratio %.4f < 0.99", r)
	}
}

// checkCold: every request must miss, which needs more vertices than the
// cache has rows.
func checkCold(d *deployment, o *outcome, diff statsDiff) {
	if n := d.tenants[0].g.NumVertices(); n <= qe.DefaultCacheRows {
		o.fail("fixture has %d vertices, not more than the %d cache rows", n, qe.DefaultCacheRows)
	}
	if r, ok := o.values["qe.cache.hit_ratio"]; ok && r > 0.01 {
		o.fail("row cache hit ratio %.4f > 0.01: the workload is not cold", r)
	}
}

func checkCluster(d *deployment, o *outcome, diff statsDiff) {
	checkCold(d, o, diff)
	if v, ok := o.values["shard.rpc.errors"]; ok && v != 0 {
		o.fail("shard.rpc.errors = %v", v)
	}
	// A row is stitched from one block row of every block the source
	// reaches; in a connected graph that is every block of the plan.
	if v, ok := o.values["shard.block_rows_per_row"]; ok {
		o.note("shard.block_rows_per_row %.1f; the plan has %d blocks, split %d / %d over the shards",
			v, d.cluster.plan.NumBlocks(), d.cluster.plan.ShardBlockCount(0), d.cluster.plan.ShardBlockCount(1))
	}
}

// deltaScript is one POST of the mixed_rw writer.
type deltaScript struct {
	tenant int
	deltas []apsp.Delta
}

const writerPeriod = 500 * time.Millisecond

// mixedWriter posts one delta script every 500 ms, alternating a weight
// change in a small block of blocks (1-5 ms) and one in the only block of
// chains_xs (its whole table is rebuilt, under the process-wide delta
// lock, while reads continue). Either evicts every cached row of its
// tenant, so the tenant's hot set is rebuilt twice a second.
func mixedWriter(ctx context.Context, d *deployment, o *outcome) {
	edges := []int32{smallBlockEdge(d.tenants[0].ref), largestBlockEdge(d.tenants[1].ref)}
	c := newConn(d.front.url)
	defer c.close()
	tick := time.NewTicker(writerPeriod)
	defer tick.Stop()
	for k := 0; ; k++ {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		t := k % 2
		tn := d.tenants[t]
		w := tn.g.Edge(edges[t]).W + float64(1+(k/2)%2)
		script := map[string]interface{}{"deltas": []map[string]interface{}{{"op": "weight", "edge": edges[t], "weight": w}}}
		var ans struct {
			Applied int `json:"applied"`
			Touched int `json:"touched_blocks"`
		}
		if err := postJSON(c.hc, c.base+tn.prefix+"/deltas", script, &ans); err != nil || ans.Applied != 1 || ans.Touched != 1 {
			o.fail("delta POST %d to %s: %v, applied %d, touched_blocks %d (want 200, 1, 1)", k, tn.prefix, err, ans.Applied, ans.Touched)
			return
		}
		d.scripts = append(d.scripts, deltaScript{t, []apsp.Delta{{Kind: apsp.DeltaWeight, Edge: edges[t], W: w}}})
	}
}

// The post-run sweep asks 2000 pairs per tenant, from 64 sources so that
// the daemon builds 64 rows for it, not 2000.
const (
	sweepPairs   = 2000
	sweepSources = 64
)

// checkMixed holds the generator to its schedule and then checks exact
// values: the reference applies the writer's scripts with ApplyDelta and
// 2000 sampled pairs per tenant must match the daemon's final state.
func checkMixed(d *deployment, o *outcome, diff statsDiff) {
	if late := o.values["client.late_p50_us"]; late >= 1000 {
		o.fail("generator ran late: client.late_p50_us = %.0f", late)
	}
	if len(d.scripts) == 0 {
		o.fail("the writer applied no delta")
		return
	}
	o.note("writer applied %d delta scripts", len(d.scripts))
	c := newConn(d.front.url)
	defer c.close()
	for t, tn := range d.tenants {
		ref := tn.ref
		for _, sc := range d.scripts {
			if sc.tenant != t {
				continue
			}
			next, _, err := ref.ApplyDelta(context.Background(), sc.deltas)
			if err != nil {
				o.fail("reference ApplyDelta: %v", err)
				return
			}
			ref = next
		}
		final := &tenant{prefix: tn.prefix, g: ref.G, ref: ref}
		n := ref.NumVertices()
		for i := 0; i < sweepPairs; i++ {
			r := newRNG(uint64(t), "mixed_rw/sweep", 0, i)
			rq := request{kind: kindDistance, u: newRNG(uint64(t), "mixed_rw/sweep-source", 0, i%sweepSources).intn(n), v: r.intn(n)}
			if i%10 == 0 {
				rq.kind = kindPath
			}
			body, err := c.do(context.Background(), final, rq, nil, 0)
			if err == nil {
				err = final.check(rq, body)
			}
			o.attempted++
			if err != nil {
				o.failed++
				o.fail("post-run sweep of %s: %v", tn.prefix, err)
				return
			}
		}
	}
}

// postJSON posts body and decodes a 2xx JSON answer into out.
func postJSON(hc *http.Client, url string, body interface{}, out interface{}) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := hc.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	ans, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("POST %s: status %d: %.200s", url, resp.StatusCode, ans)
	}
	return json.Unmarshal(ans, out)
}
