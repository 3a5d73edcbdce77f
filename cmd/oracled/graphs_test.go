package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/apsp"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/qe"
	"repro/internal/registry"
	"repro/internal/snapshot"
)

// snapDir builds a snapshot directory with one graph per name (each
// structurally distinct via its seed) and returns the dir plus each
// graph's Floyd–Warshall reference table.
func snapDir(t *testing.T, names ...string) (string, map[string]*graph.Graph, map[string][]graph.Weight) {
	t.Helper()
	dir := t.TempDir()
	graphs := make(map[string]*graph.Graph, len(names))
	refs := make(map[string][]graph.Weight, len(names))
	for i, name := range names {
		cfg := gen.Config{MaxWeight: 9}
		rng := gen.NewRNG(uint64(7 + i))
		g := gen.ChainBlocks([]*graph.Graph{
			gen.Theta([]int{2, 3, 4}, cfg, rng),
			gen.Ring(6+i, cfg, rng),
		}, cfg, rng)
		f, err := os.Create(filepath.Join(dir, name+registry.SnapshotExt))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := apsp.NewOracle(g).WriteTo(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		graphs[name] = g
		refs[name] = apsp.FloydWarshall(g)
	}
	return dir, graphs, refs
}

// multiServer boots a server over a snapshot directory — the -snapshot-dir
// serving mode, no default graph.
func multiServer(t *testing.T, dir string, maxGraphs int) (*server, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	rg, err := registry.Open(registry.Config{
		Dir: dir, MaxGraphs: maxGraphs,
		Engine: qe.Config{MaxInflight: 4, QueueDepth: 16},
		Reg:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return newServer(rg, nil, nil, reg), reg
}

// TestMultiTenantServing is the tentpole acceptance over HTTP: one daemon
// serves two named graphs lazily, each answering exactly its own
// Floyd–Warshall reference.
func TestMultiTenantServing(t *testing.T) {
	dir, graphs, refs := snapDir(t, "east", "west")
	s, reg := multiServer(t, dir, 4)
	ts := httptest.NewServer(s.mux)
	defer ts.Close()

	// Both graphs are listed but cold until a query hydrates them; the
	// hydrating answer and the warm one are the same bytes.
	for _, it := range getJSON(t, ts, "/v1/graphs", 200)["items"].([]interface{}) {
		if it.(map[string]interface{})["state"] != "cold" {
			t.Fatalf("listing before any query: %v, want cold", it)
		}
	}
	for name := range graphs {
		path := "/v1/graphs/" + name + "/distance?u=0&v=5"
		if cold, warm := getBody(t, ts, path), getBody(t, ts, path); !bytes.Equal(cold, warm) {
			t.Fatalf("%s: hydrating answer %s, warm answer %s", path, cold, warm)
		}
	}

	for name, g := range graphs {
		n := g.NumVertices()
		ref := refs[name]
		for u := 0; u < n; u++ {
			for v := 0; v < n; v += 3 {
				out := getJSON(t, ts, fmt.Sprintf("/v1/graphs/%s/distance?u=%d&v=%d", name, u, v), 200)
				want := ref[u*n+v]
				if want >= apsp.Inf {
					if out["reachable"].(bool) {
						t.Fatalf("%s d(%d,%d): reachable, want not", name, u, v)
					}
					continue
				}
				if got := out["distance"].(float64); got != float64(want) {
					t.Fatalf("%s d(%d,%d) = %v, want %v", name, u, v, got, want)
				}
			}
		}
	}
	// Both hydrated exactly once, metrics under their prefixes.
	if got := reg.Counter("registry.hydrations").Value(); got != 2 {
		t.Fatalf("registry.hydrations = %d, want 2", got)
	}
	if got := reg.Gauge("registry.graphs").Value(); got != 2 {
		t.Fatalf("registry.graphs = %d, want 2", got)
	}
	for name := range graphs {
		if reg.Counter("g."+name+".qe.pairs").Value() == 0 {
			t.Fatalf("no prefixed qe metrics for %s", name)
		}
	}

	// The listing reports both graphs live, in the uniform cursor-page
	// shape ({"items":[...],"next_cursor":...,"total":N}).
	list := getJSON(t, ts, "/v1/graphs", 200)
	if list["total"].(float64) != 2 {
		t.Fatalf("/v1/graphs: %v", list)
	}
	rows := list["items"].([]interface{})
	if len(rows) != 2 || rows[0].(map[string]interface{})["name"] != "east" {
		t.Fatalf("/v1/graphs items: %v", rows)
	}
	if _, ok := list["next_cursor"]; ok {
		t.Fatalf("single page must omit next_cursor: %v", list)
	}
	// Page size 1: names come back in order over two pages chained by
	// next_cursor.
	p1 := getJSON(t, ts, "/v1/graphs?limit=1", 200)
	if n := p1["items"].([]interface{}); len(n) != 1 || n[0].(map[string]interface{})["name"] != "east" {
		t.Fatalf("page 1: %v", p1)
	}
	p2 := getJSON(t, ts, "/v1/graphs?limit=1&cursor="+p1["next_cursor"].(string), 200)
	if n := p2["items"].([]interface{}); len(n) != 1 || n[0].(map[string]interface{})["name"] != "west" {
		t.Fatalf("page 2: %v", p2)
	}
	if out := getJSON(t, ts, "/v1/graphs?limit=zero", 400); out["code"] != "bad_request" {
		t.Fatalf("bad limit envelope: %v", out)
	}

	// Unknown graph 404, traversal-shaped name 400, and with no default
	// graph pinned the unnamed route is a 404 too.
	if out := getJSON(t, ts, "/v1/graphs/nope/distance?u=0&v=1", 404); out["code"] != "not_found" {
		t.Fatalf("unknown graph envelope: %v", out)
	}
	getJSON(t, ts, "/v1/graphs/..%2Fetc/distance?u=0&v=1", 404) // "../etc": no such graph, never a path
	if out := getJSON(t, ts, "/v1/distance?u=0&v=1", 404); out["code"] != "not_found" {
		t.Fatalf("default-less unnamed route: %v", out)
	}

	// healthz reports the registry's graph count.
	h := getJSON(t, ts, "/v1/healthz", 200)
	if h["graphs"].(float64) != 2 || h["status"] != "ok" {
		t.Fatalf("healthz: %v", h)
	}

	// At capacity one, alternating tenants evicts and rehydrates on every
	// swap, and the answers stay the same bytes.
	churn, creg := multiServer(t, dir, 1)
	cts := httptest.NewServer(churn.mux)
	defer cts.Close()
	first := map[string][]byte{}
	for _, name := range []string{"east", "west", "east", "west"} {
		b := getBody(t, cts, "/v1/graphs/"+name+"/distance?u=0&v=5")
		if first[name] == nil {
			first[name] = b
		} else if !bytes.Equal(b, first[name]) {
			t.Fatalf("%s after churn: %s, first %s", name, b, first[name])
		}
	}
	if ev, hy := creg.Counter("registry.evictions").Value(), creg.Counter("registry.hydrations").Value(); ev != 3 || hy != 4 {
		t.Fatalf("capacity-1 churn: %d evictions, %d hydrations, want 3 and 4", ev, hy)
	}
}

// getBody is the body of a 200 answer to GET path.
func getBody(t *testing.T, ts *httptest.Server, path string) []byte {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("GET %s: status %d, %v", path, resp.StatusCode, err)
	}
	return b
}

// TestDefaultGraphEquivalence pins the compatibility contract: every
// unnamed route answers byte-identically to its /v1/graphs/default twin,
// and — being one handler instance — both spellings feed one
// oracled.<name>.* metrics family.
func TestDefaultGraphEquivalence(t *testing.T) {
	s, _, _ := testServer(t)
	ts := httptest.NewServer(s.mux)
	defer ts.Close()

	for _, pair := range [][2]string{
		{"/v1/distance?u=0&v=3", "/v1/graphs/default/distance?u=0&v=3"},
		{"/v1/path?u=0&v=3", "/v1/graphs/default/path?u=0&v=3"},
		{"/v1/mcb/cycle?i=0", "/v1/graphs/default/mcb/cycle?i=0"},
	} {
		var bodies [2][]byte
		for i, p := range pair {
			resp, err := ts.Client().Get(ts.URL + p)
			if err != nil {
				t.Fatal(err)
			}
			b, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != 200 {
				t.Fatalf("GET %s: status %d", p, resp.StatusCode)
			}
			bodies[i] = b
		}
		if !bytes.Equal(bodies[0], bodies[1]) {
			t.Fatalf("%s and %s differ:\n%s\n%s", pair[0], pair[1], bodies[0], bodies[1])
		}
	}
	// The listing shows the one graph, pinned.
	items := getJSON(t, ts, "/v1/graphs", 200)["items"].([]interface{})
	if d := items[0].(map[string]interface{}); len(items) != 1 || d["name"] != "default" || d["pinned"] != true {
		t.Fatalf("single-graph listing: %v, want the pinned default alone", items)
	}
	stats := getJSON(t, ts, "/v1/stats", 200)
	for _, name := range []string{"distance", "path", "mcb.cycle"} {
		if got := stats["oracled."+name+".requests"]; got != float64(2) {
			t.Fatalf("oracled.%s.requests = %v, want 2 (one per spelling)", name, got)
		}
	}
}

// TestGraphAdminLifecycle walks the admin surface end to end: upload a
// snapshot, query it, read its stats, replace it, delete it.
func TestGraphAdminLifecycle(t *testing.T) {
	dir, _, _ := snapDir(t, "seedgraph")
	s, _ := multiServer(t, dir, 4)
	ts := httptest.NewServer(s.mux)
	defer ts.Close()

	do := func(method, path string, body io.Reader, wantStatus int) map[string]interface{} {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("%s %s: status %d, want %d (%s)", method, path, resp.StatusCode, wantStatus, b)
		}
		var out map[string]interface{}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, path, err)
		}
		return out
	}

	// Upload a new graph.
	g := gen.Ring(10, gen.Config{MaxWeight: 1}, gen.NewRNG(3))
	var snap bytes.Buffer
	if _, err := apsp.NewOracle(g).WriteTo(&snap); err != nil {
		t.Fatal(err)
	}
	up := do(http.MethodPut, "/v1/graphs/uploaded", bytes.NewReader(snap.Bytes()), 200)
	if up["vertices"].(float64) != 10 {
		t.Fatalf("upload response: %v", up)
	}
	if d := getJSON(t, ts, "/v1/graphs/uploaded/distance?u=0&v=5", 200); d["distance"].(float64) != 5 {
		t.Fatalf("uploaded ring d(0,5): %v", d)
	}

	// GET returns lifecycle info plus the scoped stats (unprefixed names).
	info := do(http.MethodGet, "/v1/graphs/uploaded", nil, 200)
	if info["state"] != "live" {
		t.Fatalf("uploaded info: %v", info)
	}
	if stats, ok := info["stats"].(map[string]interface{}); !ok || stats["qe.rows.built"] == nil || stats["qe.pairs"] != float64(1) {
		t.Fatalf("uploaded stats: %v", info["stats"])
	}

	// Garbage upload: 400, graph not registered.
	if out := do(http.MethodPut, "/v1/graphs/junk", strings.NewReader("not a snapshot"), 400); out["code"] != "bad_request" {
		t.Fatalf("garbage upload envelope: %v", out)
	}
	do(http.MethodGet, "/v1/graphs/junk", nil, 404)

	// A delta-chain file (a container with a "deltas" section to replay)
	// is version skew: 400, not its stale base.
	sw := snapshot.NewWriter()
	chain := sw.Section("deltas")
	chain.U32(1)
	chain.U64(0)
	var chainFile bytes.Buffer
	if _, err := sw.WriteTo(&chainFile); err != nil {
		t.Fatal(err)
	}
	if out := do(http.MethodPut, "/v1/graphs/chain", &chainFile, 400); !strings.Contains(out["error"].(string), "delta chain") {
		t.Fatalf("delta-chain upload envelope: %v", out)
	}
	do(http.MethodGet, "/v1/graphs/chain", nil, 404)

	// An oracle of single-precision tables (meta flag bit 0, which no
	// release wrote) is version skew: 400, and the directory is untouched.
	before, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	sw = snapshot.NewWriter()
	meta := sw.Section("meta")
	meta.U32(3) // oracle payload version
	meta.U64(10)
	meta.U64(1)
	meta.U64(0)
	meta.I64(0)
	meta.U32(1) // flags: bit 0
	var single bytes.Buffer
	if _, err := sw.WriteTo(&single); err != nil {
		t.Fatal(err)
	}
	if out := do(http.MethodPut, "/v1/graphs/single", &single, 400); !strings.Contains(out["error"].(string), "single-precision") {
		t.Fatalf("single-precision upload envelope: %v", out)
	}
	do(http.MethodGet, "/v1/graphs/single", nil, 404)
	if after, err := os.ReadDir(dir); err != nil || !slices.EqualFunc(before, after, func(a, b os.DirEntry) bool { return a.Name() == b.Name() }) {
		t.Fatalf("snapshot directory changed: %v → %v (%v)", before, after, err)
	}

	// Replace: the ring shrinks; the route serves the new graph.
	g2 := gen.Ring(6, gen.Config{MaxWeight: 1}, gen.NewRNG(4))
	snap.Reset()
	if _, err := apsp.NewOracle(g2).WriteTo(&snap); err != nil {
		t.Fatal(err)
	}
	do(http.MethodPut, "/v1/graphs/uploaded", bytes.NewReader(snap.Bytes()), 200)
	if d := getJSON(t, ts, "/v1/graphs/uploaded/distance?u=0&v=3", 200); d["distance"].(float64) != 3 {
		t.Fatalf("replaced ring d(0,3): %v", d)
	}

	// Delete: gone from routes and listing, snapshot file removed.
	if out := do(http.MethodDelete, "/v1/graphs/uploaded", nil, 200); out["removed"] != true {
		t.Fatalf("delete response: %v", out)
	}
	getJSON(t, ts, "/v1/graphs/uploaded/distance?u=0&v=1", 404)
	if _, err := os.Stat(filepath.Join(dir, "uploaded"+registry.SnapshotExt)); !os.IsNotExist(err) {
		t.Fatalf("snapshot file survived delete")
	}

	// Method and name validation on the admin resource.
	do(http.MethodPost, "/v1/graphs/seedgraph", nil, 405)
	do(http.MethodDelete, "/v1/graphs/%2e%2e", nil, 400)
}

// TestNamedGraphDeltas applies a delta to one named graph and asserts the
// other graph (and the basis-free admin surface) is untouched.
func TestNamedGraphDeltas(t *testing.T) {
	dir := t.TempDir()
	for i, name := range []string{"a", "b"} {
		g := gen.Ring(12, gen.Config{MaxWeight: 1}, gen.NewRNG(uint64(1+i)))
		f, err := os.Create(filepath.Join(dir, name+registry.SnapshotExt))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := apsp.NewOracle(g).WriteTo(f); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	s, _ := multiServer(t, dir, 4)
	ts := httptest.NewServer(s.mux)
	defer ts.Close()

	if d := getJSON(t, ts, "/v1/graphs/a/distance?u=0&v=6", 200); d["distance"].(float64) != 6 {
		t.Fatalf("pre-delta a: %v", d)
	}
	out := postJSON(t, ts, "/v1/graphs/a/deltas", `{"deltas":[{"op":"insert","u":0,"v":6,"weight":1}]}`, 200)
	if out["applied"].(float64) != 1 {
		t.Fatalf("deltas response: %v", out)
	}
	if d := getJSON(t, ts, "/v1/graphs/a/distance?u=0&v=6", 200); d["distance"].(float64) != 1 {
		t.Fatalf("post-delta a: %v", d)
	}
	// b is a separate tenant: still the plain ring.
	if d := getJSON(t, ts, "/v1/graphs/b/distance?u=0&v=6", 200); d["distance"].(float64) != 6 {
		t.Fatalf("b disturbed by a's delta: %v", d)
	}
}

// TestValidateServeOpts pins the fail-fast flag conflicts, -snapshot-dir's
// in particular: multi-tenant mode excludes every single-graph source and
// persistence flag.
func TestValidateServeOpts(t *testing.T) {
	cases := []struct {
		name string
		o    serveOpts
		ok   bool
	}{
		{"dataset only", serveOpts{dataset: "Planar_1"}, true},
		{"file only", serveOpts{file: "g.mtx"}, true},
		{"load-snapshot only", serveOpts{loadSnap: "o.snap"}, true},
		{"snapshot-dir only", serveOpts{snapshotDir: "snaps"}, true},
		{"mcb with dataset", serveOpts{dataset: "Planar_1", withMCB: true}, true},
		{"load-snapshot with file", serveOpts{loadSnap: "o.snap", file: "g.mtx"}, false},
		{"load-snapshot with dataset", serveOpts{loadSnap: "o.snap", dataset: "Planar_1"}, false},
		{"mcb without source", serveOpts{withMCB: true}, false},
		{"snapshot-dir with file", serveOpts{snapshotDir: "snaps", file: "g.mtx"}, false},
		{"snapshot-dir with dataset", serveOpts{snapshotDir: "snaps", dataset: "Planar_1"}, false},
		{"snapshot-dir with load-snapshot", serveOpts{snapshotDir: "snaps", loadSnap: "o.snap"}, false},
		{"snapshot-dir with mcb", serveOpts{snapshotDir: "snaps", withMCB: true}, false},
		{"snapshot-dir with save-snapshot", serveOpts{snapshotDir: "snaps", saveSnap: "o.snap"}, false},
	}
	for _, tc := range cases {
		if err := validateServeOpts(tc.o); (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
