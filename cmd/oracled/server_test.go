package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/apsp"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mcb"
	"repro/internal/obs"
	"repro/internal/qe"
	"repro/internal/registry"
)

func testServer(t *testing.T) (*server, *graph.Graph, []graph.Weight) {
	t.Helper()
	cfg := gen.Config{MaxWeight: 9}
	rng := gen.NewRNG(42)
	g := gen.ChainBlocks([]*graph.Graph{
		gen.Theta([]int{2, 3, 4}, cfg, rng),
		gen.CycleNecklace(3, 3, cfg, rng),
	}, cfg, rng)
	oracle := apsp.NewOracle(g)
	basis := mcb.Compute(g, mcb.Options{UseEar: true})
	reg := obs.NewRegistry()
	engine := qe.New(oracle, qe.Config{MaxInflight: 8, QueueDepth: 64, Reg: reg})
	rg, err := registry.Open(registry.Config{Reg: reg})
	if err != nil {
		t.Fatal(err)
	}
	rg.AddStatic(registry.DefaultGraph, oracle, engine)
	return newServer(rg, basis, nil, reg), g, apsp.FloydWarshall(g)
}

// testServerEngine is testServer with an injected engine constructor for
// the default graph — the hook the overload/batch-cap tests use to serve
// through a blocking or tightly-capped engine.
func testServerEngine(t *testing.T, mk func(g *graph.Graph, o *apsp.Oracle) *qe.Engine) (*server, *graph.Graph) {
	t.Helper()
	cfg := gen.Config{MaxWeight: 9}
	rng := gen.NewRNG(42)
	g := gen.ChainBlocks([]*graph.Graph{
		gen.Theta([]int{2, 3, 4}, cfg, rng),
		gen.CycleNecklace(3, 3, cfg, rng),
	}, cfg, rng)
	oracle := apsp.NewOracle(g)
	basis := mcb.Compute(g, mcb.Options{UseEar: true})
	reg := obs.NewRegistry()
	rg, err := registry.Open(registry.Config{Reg: reg})
	if err != nil {
		t.Fatal(err)
	}
	rg.AddStatic(registry.DefaultGraph, oracle, mk(g, oracle))
	return newServer(rg, basis, nil, reg), g
}

// liveOracle returns the default graph's currently served oracle (the
// post-delta build, if /v1/deltas ran).
func liveOracle(t *testing.T, s *server) *apsp.Oracle {
	t.Helper()
	e, err := s.registry.Acquire(context.Background(), registry.DefaultGraph)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Release()
	return e.Oracle()
}

func getJSON(t *testing.T, ts *httptest.Server, path string, wantStatus int) map[string]interface{} {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, wantStatus)
	}
	var out map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("GET %s: decode: %v", path, err)
	}
	return out
}

func TestEndpoints(t *testing.T) {
	s, g, ref := testServer(t)
	ts := httptest.NewServer(s.mux)
	defer ts.Close()

	h := getJSON(t, ts, "/v1/healthz", 200)
	if h["status"] != "ok" || h["mcb"] != true {
		t.Fatalf("healthz: %v", h)
	}

	n := g.NumVertices()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v += 3 {
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

	p := getJSON(t, ts, "/v1/path?u=0&v=5", 200)
	if p["reachable"] != true {
		t.Fatalf("path: %v", p)
	}
	walk := p["path"].([]interface{})
	if int32(walk[0].(float64)) != 0 || int32(walk[len(walk)-1].(float64)) != 5 {
		t.Fatalf("path endpoints wrong: %v", walk)
	}

	c := getJSON(t, ts, "/v1/mcb/cycle?i=0", 200)
	if c["weight"].(float64) <= 0 || len(c["vertices"].([]interface{})) == 0 {
		t.Fatalf("mcb cycle: %v", c)
	}

	// Error paths: malformed and out-of-range inputs are clean JSON errors.
	for _, bad := range []struct {
		path   string
		status int
	}{
		{"/v1/distance?u=zero&v=1", 400},
		{"/v1/distance?u=-1&v=0", 400},
		{fmt.Sprintf("/v1/distance?u=0&v=%d", n), 400},
		{"/v1/path?u=0", 400},
		{fmt.Sprintf("/v1/path?u=%d&v=0", n+7), 400},
		{"/v1/mcb/cycle?i=notanumber", 400},
		{"/v1/mcb/cycle?i=99999", 404},
		{"/v1/mcb/cycle?i=-1", 404},
	} {
		out := getJSON(t, ts, bad.path, bad.status)
		if out["error"] == "" {
			t.Fatalf("%s: missing error body: %v", bad.path, out)
		}
	}

	// Metrics observed the traffic and render as one JSON object.
	stats := getJSON(t, ts, "/v1/stats", 200)
	if _, ok := stats["oracled.distance.requests"]; !ok {
		t.Fatalf("stats missing request counter: %v", stats)
	}
	if _, ok := stats["oracled.distance.latency"]; !ok {
		t.Fatalf("stats missing latency histogram: %v", stats)
	}
}

func TestMCBDisabled(t *testing.T) {
	s, _, _ := testServer(t)
	s.basis = nil
	ts := httptest.NewServer(s.mux)
	defer ts.Close()
	out := getJSON(t, ts, "/v1/mcb/cycle?i=0", 503)
	if out["error"] == "" {
		t.Fatal("missing error body")
	}
}

func TestConcurrentRequests(t *testing.T) {
	s, g, ref := testServer(t)
	ts := httptest.NewServer(s.mux)
	defer ts.Close()
	n := g.NumVertices()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				u, v := (w+i)%n, (w*3+i*7)%n
				resp, err := ts.Client().Get(fmt.Sprintf("%s/v1/distance?u=%d&v=%d", ts.URL, u, v))
				if err != nil {
					errs <- err
					return
				}
				var out map[string]interface{}
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if want := ref[u*n+v]; want < apsp.Inf && out["distance"].(float64) != want {
					errs <- fmt.Errorf("d(%d,%d) = %v, want %v", u, v, out["distance"], want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

// TestGracefulShutdown drives the same serve loop main uses: cancel the
// context (the signal path) and assert the server drains an in-flight
// request before returning.
func TestGracefulShutdown(t *testing.T) {
	s, _, _ := testServer(t)
	started := make(chan struct{})
	release := make(chan struct{})
	s.mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		close(started)
		<-release
		fmt.Fprint(w, "done")
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: s.mux}
	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() { serveErr <- serve(ctx, srv, ln, 5*time.Second) }()

	slowDone := make(chan error, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/slow")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != 200 {
				err = fmt.Errorf("slow request status %d", resp.StatusCode)
			}
		}
		slowDone <- err
	}()
	<-started
	cancel() // deliver the "signal" while /slow is in flight
	select {
	case err := <-serveErr:
		t.Fatalf("serve returned before draining: %v", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if err := <-slowDone; err != nil {
		t.Fatalf("in-flight request: %v", err)
	}
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not return after drain")
	}
}

func postJSON(t *testing.T, ts *httptest.Server, path, body string, wantStatus int) map[string]interface{} {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d, want %d", path, resp.StatusCode, wantStatus)
	}
	var out map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("POST %s: decode: %v", path, err)
	}
	return out
}

// TestBatchEndpoint checks /batch against the Floyd–Warshall reference,
// including unreachable pairs (-1), and the error paths: wrong method,
// malformed body, out-of-range vertices.
func TestBatchEndpoint(t *testing.T) {
	s, g, ref := testServer(t)
	ts := httptest.NewServer(s.mux)
	defer ts.Close()
	n := g.NumVertices()

	sources := []int{0, 3, n - 1, 3}
	targets := []int{1, 0, n - 2}
	body, _ := json.Marshal(map[string][]int{"sources": sources, "targets": targets})
	out := postJSON(t, ts, "/v1/batch", string(body), 200)
	if int(out["sources"].(float64)) != len(sources) || int(out["targets"].(float64)) != len(targets) {
		t.Fatalf("batch shape: %v", out)
	}
	dist := out["distances"].([]interface{})
	for i, u := range sources {
		row := dist[i].([]interface{})
		for j, v := range targets {
			got := row[j].(float64)
			want := ref[u*n+v]
			if want >= apsp.Inf {
				if got != -1 {
					t.Fatalf("batch[%d][%d] = %v, want -1 (unreachable)", i, j, got)
				}
				continue
			}
			if got != want {
				t.Fatalf("batch[%d][%d] = d(%d,%d) = %v, want %v", i, j, u, v, got, want)
			}
		}
	}

	// GET is rejected, bad JSON and bad vertices are 400s.
	resp, err := ts.Client().Get(ts.URL + "/v1/batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /batch: status %d", resp.StatusCode)
	}
	postJSON(t, ts, "/v1/batch", `{"sources":[0],`, 400)
	postJSON(t, ts, "/v1/batch", fmt.Sprintf(`{"sources":[%d],"targets":[0]}`, n), 400)
	postJSON(t, ts, "/v1/batch", `{"sources":[0],"targets":[-1]}`, 400)

	// Engine metrics surfaced through /stats.
	stats := getJSON(t, ts, "/v1/stats", 200)
	for _, k := range []string{"qe.pairs", "qe.rows.built", "qe.batch.sources",
		"qe.batch.pairs", "qe.queue.depth", "qe.inflight"} {
		if _, ok := stats[k]; !ok {
			t.Fatalf("stats missing %q: %v", k, stats)
		}
	}
}

// TestOverloadResponds503 saturates a one-slot, zero-queue engine with a
// request that blocks inside its row build and asserts the next request
// is shed as 503 with a Retry-After header.
func TestOverloadResponds503(t *testing.T) {
	gate := make(chan struct{})
	began := make(chan struct{}, 1)
	s, _ := testServerEngine(t, func(g *graph.Graph, o *apsp.Oracle) *qe.Engine {
		src := &blockingSource{n: g.NumVertices(), oracle: o, gate: gate, began: began}
		return qe.New(src, qe.Config{MaxInflight: 1, QueueDepth: 0, Reg: obs.NewRegistry()})
	})
	ts := httptest.NewServer(s.mux)
	defer ts.Close()

	done := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Get(ts.URL + "/v1/distance?u=0&v=1")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != 200 {
				err = fmt.Errorf("blocked request finished with %d", resp.StatusCode)
			}
		}
		done <- err
	}()
	<-began // the only slot is now held inside a row build

	resp, err := ts.Client().Get(ts.URL + "/v1/distance?u=2&v=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overloaded request: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After header")
	}
	var out map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || out["error"] == "" {
		t.Fatalf("503 body: %v, %v", out, err)
	}

	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("first request: %v", err)
	}
}

// blockingSource delegates rows to the real oracle but blocks the first
// build on a gate, so tests can hold the engine's admission slot open
// deterministically.
type blockingSource struct {
	n      int
	oracle *apsp.Oracle
	gate   chan struct{}
	began  chan struct{}
	once   sync.Once
}

func (b *blockingSource) NumVertices() int { return b.n }

func (b *blockingSource) Row(src int32, out []graph.Weight) int64 {
	b.once.Do(func() {
		b.began <- struct{}{}
		<-b.gate
	})
	return b.oracle.Row(src, out)
}
