package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/apsp"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/qe"
	"repro/internal/registry"
	"repro/internal/shard"
)

// testFrontend boots a complete sharded deployment in-process: a
// 2-shard plan carved from one oracle, one httptest daemon per shard,
// and an oracled server in frontend mode over the fan-out source. The
// returned shard servers can be killed individually to exercise the
// failure surface. epochSkew offsets the shard snapshots' epoch from
// the plan's, for the mismatch test.
func testFrontend(t *testing.T, epochSkew uint64) (*server, *graph.Graph, []graph.Weight, []*httptest.Server) {
	t.Helper()
	cfg := gen.Config{MaxWeight: 9}
	rng := gen.NewRNG(7)
	g := gen.BridgeChain(4, 4, cfg, rng)
	o := apsp.NewOracle(g)
	p, err := shard.PlanShards(o, shard.PlanOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	servers := make([]*httptest.Server, p.NumShards)
	addrs := make([]string, p.NumShards)
	for sid := int32(0); sid < p.NumShards; sid++ {
		var buf bytes.Buffer
		meta := apsp.ShardMeta{Epoch: p.Epoch + epochSkew, Shard: sid, NumShards: p.NumShards}
		if _, err := o.WriteShardSnapshot(&buf, meta, p.OwnedMask(sid)); err != nil {
			t.Fatal(err)
		}
		sb, err := apsp.ReadShardSnapshot(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		mux := http.NewServeMux()
		shard.NewHandler(sb).Register(mux)
		servers[sid] = httptest.NewServer(mux)
		addrs[sid] = servers[sid].URL
	}
	t.Cleanup(func() {
		for _, ts := range servers {
			if ts != nil {
				ts.Close()
			}
		}
	})
	reg := obs.NewRegistry()
	src, err := shard.NewRemoteSource(shard.SourceConfig{Plan: p, Addrs: addrs, Reg: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src.Close() })
	// The engine keeps no rows: every request re-runs the fan-out, so a
	// killed shard is visible immediately.
	engine := qe.New(src, qe.Config{MaxInflight: 8, QueueDepth: 64, Reg: reg})
	rg, err := registry.Open(registry.Config{Reg: reg})
	if err != nil {
		t.Fatal(err)
	}
	rg.AddRemote(registry.DefaultGraph, engine, p.NumVertices)
	s := newServer(rg, nil, nil, reg)
	s.enableCluster(src)
	return s, g, apsp.FloydWarshall(g), servers
}

func TestClusterFrontendServes(t *testing.T) {
	s, g, ref, _ := testFrontend(t, 0)
	ts := httptest.NewServer(s.mux)
	defer ts.Close()

	n := g.NumVertices()
	for u := 0; u < n; u += 3 {
		for v := 0; v < n; v += 2 {
			out := getJSON(t, ts, fmt.Sprintf("/v1/distance?u=%d&v=%d", u, v), 200)
			want := ref[u*n+v]
			if want >= apsp.Inf {
				if out["reachable"] != false {
					t.Fatalf("distance(%d,%d): %v, want unreachable", u, v, out)
				}
				continue
			}
			if got := out["distance"].(float64); got != want {
				t.Fatalf("distance(%d,%d) = %v, want %v", u, v, got, want)
			}
		}
	}

	// /v1/batch through the same fan-out.
	body := strings.NewReader(`{"sources":[0,5],"targets":[1,9]}`)
	resp, err := ts.Client().Post(ts.URL+"/v1/batch", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// The health surface reports the plan's vertex count for the default
	// graph even though no local graph exists.
	h := getJSON(t, ts, "/v1/healthz", 200)
	if int(h["vertices"].(float64)) != n {
		t.Fatalf("healthz vertices = %v, want %d", h["vertices"], n)
	}
}

// TestClusterFrontendJobs runs jobs on a frontend, whose default graph
// has an engine but no local graph: batch_matrix streams the fan-out's
// rows, bc fails with jobs.ErrNoGraph, and the daemon keeps answering.
func TestClusterFrontendJobs(t *testing.T) {
	s, g, ref, _ := testFrontend(t, 0)
	jm, err := jobs.Open(jobs.Config{
		Dir: t.TempDir(),
		Host: func(ctx context.Context, name string) (jobs.GraphRef, error) {
			return s.registry.Acquire(ctx, name)
		},
		Known:     func(name string) bool { _, ok := s.registry.Info(name); return ok },
		ChunkSize: 4,
		Reg:       s.reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		jm.Close(ctx)
		cancel()
	})
	s.jobs = jm
	ts := httptest.NewServer(s.mux)
	defer ts.Close()

	n := g.NumVertices()
	id := postJSON(t, ts, "/v1/jobs", `{"kind":"batch_matrix"}`, 202)["id"].(string)
	waitJobState(t, ts, id, "completed")
	rr, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	var rows int
	for dec := json.NewDecoder(rr.Body); dec.More(); rows++ {
		var row struct {
			Source int
			Dist   []float64
		}
		if err := dec.Decode(&row); err != nil {
			t.Fatal(err)
		}
		if row.Source != rows || len(row.Dist) != n {
			t.Fatalf("row %d: source %d, %d distances", rows, row.Source, len(row.Dist))
		}
		for v, d := range row.Dist {
			if want := ref[row.Source*n+v]; d != want && !(want >= apsp.Inf && d == -1) {
				t.Fatalf("d(%d,%d) = %v, want %v", row.Source, v, d, want)
			}
		}
	}
	rr.Body.Close()
	if rows != n {
		t.Fatalf("%d rows, want %d", rows, n)
	}

	id = postJSON(t, ts, "/v1/jobs", `{"kind":"bc"}`, 202)["id"].(string)
	if st := waitJobState(t, ts, id, "failed"); st["error"] != jobs.ErrNoGraph.Error() {
		t.Fatalf("bc on a frontend: error %v, want %q", st["error"], jobs.ErrNoGraph)
	}
	if got := getJSON(t, ts, "/v1/distance?u=0&v=5", 200)["distance"]; got != ref[5] {
		t.Fatalf("distance(0,5) after the jobs = %v, want %v", got, ref[5])
	}
}

func TestClusterSurface(t *testing.T) {
	s, _, _, _ := testFrontend(t, 0)
	ts := httptest.NewServer(s.mux)
	defer ts.Close()

	c := getJSON(t, ts, "/v1/cluster", 200)
	if int(c["num_shards"].(float64)) != 2 || int(c["total"].(float64)) != 2 {
		t.Fatalf("cluster: %v", c)
	}
	if c["epoch"].(float64) == 0 {
		t.Fatalf("cluster epoch missing: %v", c)
	}
	items := c["items"].([]interface{})
	if len(items) != 2 {
		t.Fatalf("cluster items: %v", items)
	}
	for i, it := range items {
		row := it.(map[string]interface{})
		if int(row["id"].(float64)) != i || row["healthy"] != true || row["addr"] == "" {
			t.Fatalf("shard row %d: %v", i, row)
		}
		if int(row["blocks"].(float64)) <= 0 {
			t.Fatalf("shard row %d owns no blocks: %v", i, row)
		}
	}
	if _, ok := c["next_cursor"]; ok {
		t.Fatalf("single page must omit next_cursor: %v", c)
	}

	// Cursor pagination: limit=1 pages the two shards without overlap.
	p1 := getJSON(t, ts, "/v1/cluster?limit=1", 200)
	if len(p1["items"].([]interface{})) != 1 || p1["next_cursor"] == nil {
		t.Fatalf("page 1: %v", p1)
	}
	p2 := getJSON(t, ts, "/v1/cluster?limit=1&cursor="+p1["next_cursor"].(string), 200)
	id1 := p1["items"].([]interface{})[0].(map[string]interface{})["id"].(float64)
	id2 := p2["items"].([]interface{})[0].(map[string]interface{})["id"].(float64)
	if id1 == id2 {
		t.Fatalf("pages overlap: %v then %v", id1, id2)
	}

	// Per-shard resource, and 404 past the plan.
	d := getJSON(t, ts, "/v1/cluster/shards/1", 200)
	if int(d["id"].(float64)) != 1 || d["epoch"].(float64) != c["epoch"].(float64) {
		t.Fatalf("shard detail: %v", d)
	}
	nf := getJSON(t, ts, "/v1/cluster/shards/9", 404)
	if nf["code"] != "not_found" {
		t.Fatalf("missing shard: %v", nf)
	}
}

func TestClusterShardKilledEnvelope(t *testing.T) {
	s, g, ref, servers := testFrontend(t, 0)
	ts := httptest.NewServer(s.mux)
	defer ts.Close()

	const dead = 1
	servers[dead].Close()
	servers[dead] = nil

	// Every /v1/distance either still matches the reference (the pair's
	// own blocks live on the surviving shard) or is a 503 with the
	// shard-aware envelope — never a 200 with a wrong answer or a false
	// "unreachable", never a 500. A pair touches at most two blocks, so
	// both outcomes must occur.
	n := g.NumVertices()
	var sawEnvelope, sawAnswer bool
	for u := 0; u < n; u++ {
		resp, err := ts.Client().Get(fmt.Sprintf("%s/v1/distance?u=%d&v=%d", ts.URL, u, (u+1)%n))
		if err != nil {
			t.Fatal(err)
		}
		switch resp.StatusCode {
		case 200:
			var out map[string]interface{}
			decodeBody(t, resp, &out)
			if want := ref[u*n+(u+1)%n]; want < apsp.Inf && out["distance"] != want {
				t.Fatalf("distance(%d) = %v with shard dead, want %v", u, out["distance"], want)
			}
			sawAnswer = true
		case 503:
			var env map[string]interface{}
			decodeBody(t, resp, &env)
			if env["code"] != "shard_unavailable" {
				t.Fatalf("code = %v, want shard_unavailable", env["code"])
			}
			if int(env["shard_id"].(float64)) != dead {
				t.Fatalf("shard_id = %v, want %d", env["shard_id"], dead)
			}
			if env["retry_after_ms"].(float64) <= 0 {
				t.Fatalf("no retry_after_ms in %v", env)
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("503 without Retry-After header")
			}
			sawEnvelope = true
		default:
			t.Fatalf("distance(%d): status %d", u, resp.StatusCode)
		}
	}
	if !sawEnvelope || !sawAnswer {
		t.Fatalf("shard_unavailable envelope seen: %v, surviving answer seen: %v; want both", sawEnvelope, sawAnswer)
	}

	// The cluster surface shows the shard marked unhealthy by the failed
	// fetches, with its last error recorded.
	c := getJSON(t, ts, fmt.Sprintf("/v1/cluster/shards/%d", dead), 200)
	if c["healthy"] != false || c["last_error"] == "" {
		t.Fatalf("dead shard not marked: %v", c)
	}
}

func TestClusterEpochMismatchEnvelope(t *testing.T) {
	s, _, _, _ := testFrontend(t, 3) // shards stamped with a different epoch
	ts := httptest.NewServer(s.mux)
	defer ts.Close()

	env := getJSON(t, ts, "/v1/distance?u=0&v=9", 503)
	if env["code"] != "plan_epoch_mismatch" {
		t.Fatalf("code = %v, want plan_epoch_mismatch", env["code"])
	}
	if _, ok := env["shard_id"]; !ok {
		t.Fatalf("no shard_id in %v", env)
	}
}

func TestClusterUnavailableOffFrontend(t *testing.T) {
	s, _, _ := testServer(t) // monolith daemon: no cluster attached
	ts := httptest.NewServer(s.mux)
	defer ts.Close()
	for _, path := range []string{"/v1/cluster", "/v1/cluster/shards/0"} {
		env := getJSON(t, ts, path, 503)
		if env["code"] != "unavailable" {
			t.Fatalf("%s: %v", path, env)
		}
	}
}

func TestClusterFrontendRefusesLocalOnly(t *testing.T) {
	s, _, _, _ := testFrontend(t, 0)
	ts := httptest.NewServer(s.mux)
	defer ts.Close()

	// Path reconstruction and deltas need a local oracle the frontend
	// does not have: 503, not a panic.
	env := getJSON(t, ts, "/v1/path?u=0&v=5", 503)
	if env["code"] != "unavailable" {
		t.Fatalf("path on frontend: %v", env)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/deltas", "application/json",
		strings.NewReader(`{"deltas":[{"op":"weight","edge":0,"weight":5}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("deltas on frontend: status %d, want 503", resp.StatusCode)
	}
}

// decodeBody decodes one response body as JSON and closes it.
func decodeBody(t *testing.T, resp *http.Response, v interface{}) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decode: %v", err)
	}
}
