package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/apsp"
	"repro/internal/graph"
)

// TestDeltasEndpoint applies a mixed script over HTTP and asserts the
// served answers move to exactly what a from-scratch oracle on the
// mutated graph computes — plus the shape of the response and the error
// paths (unknown op, missing fields, out-of-range IDs, wrong method).
func TestDeltasEndpoint(t *testing.T) {
	s, g, _ := testServer(t)
	ts := httptest.NewServer(s.mux)
	defer ts.Close()
	n := int32(g.NumVertices())

	// Warm the cache so the apply has stale rows to evict.
	getJSON(t, ts, "/v1/distance?u=0&v=5", 200)
	getJSON(t, ts, fmt.Sprintf("/v1/distance?u=3&v=%d", n-1), 200)

	e0 := g.Edge(0)
	body := fmt.Sprintf(`{"deltas":[
		{"op":"weight","edge":0,"weight":%g},
		{"op":"insert","u":0,"v":%d,"weight":1},
		{"op":"delete","edge":1}
	]}`, float64(e0.W)+3, n)
	out := postJSON(t, ts, "/v1/deltas", body, 200)
	if out["applied"].(float64) != 3 {
		t.Fatalf("applied = %v, want 3", out["applied"])
	}
	if out["vertices"].(float64) != float64(n+1) {
		t.Fatalf("vertices = %v, want %d (insert grew the graph)", out["vertices"], n+1)
	}
	if out["edges"].(float64) != float64(g.NumEdges()) {
		t.Fatalf("edges = %v, want %d (one insert, one delete)", out["edges"], g.NumEdges())
	}

	ds := []apsp.Delta{
		{Kind: apsp.DeltaWeight, Edge: 0, W: e0.W + 3},
		{Kind: apsp.DeltaInsert, U: 0, V: n, W: 1},
		{Kind: apsp.DeltaDelete, Edge: 1},
	}
	mutated, err := apsp.MutateGraph(g, ds)
	if err != nil {
		t.Fatal(err)
	}
	want := apsp.NewOracle(mutated)
	nn := mutated.NumVertices()
	for u := 0; u < nn; u++ {
		for v := 0; v < nn; v += 2 {
			out := getJSON(t, ts, fmt.Sprintf("/v1/distance?u=%d&v=%d", u, v), 200)
			wd := want.Query(int32(u), int32(v))
			if wd >= apsp.Inf {
				if out["reachable"] != false {
					t.Fatalf("d(%d,%d): %v, want unreachable", u, v, out)
				}
				continue
			}
			if got := out["distance"].(float64); got != float64(wd) {
				t.Fatalf("d(%d,%d) = %v, want %v after deltas", u, v, got, wd)
			}
		}
	}

	// /healthz reflects the post-delta graph.
	h := getJSON(t, ts, "/v1/healthz", 200)
	if h["vertices"].(float64) != float64(nn) {
		t.Fatalf("healthz vertices = %v, want %d", h["vertices"], nn)
	}

	// Error paths: every rejection is the standard envelope and leaves the
	// oracle untouched.
	before := getJSON(t, ts, "/v1/distance?u=0&v=2", 200)
	for _, bad := range []struct {
		body   string
		status int
		code   string
	}{
		{`{"deltas":[{"op":"teleport","edge":0}]}`, 400, "bad_request"},
		{`{"deltas":[{"op":"weight","edge":0}]}`, 400, "bad_request"},         // missing weight
		{`{"deltas":[{"op":"insert","u":0,"weight":1}]}`, 400, "bad_request"}, // missing v
		{`{"deltas":[{"op":"delete","edge":99999}]}`, 400, "bad_request"},     // ErrBadDelta
		{`{"deltas":[{"op":"weight","edge":0,"weight":-2}]}`, 400, "bad_request"},
		{`{"deltas":[]}`, 400, "bad_request"},
		{`{"deltas":[{"op":`, 400, "bad_request"},
	} {
		out := postJSON(t, ts, "/v1/deltas", bad.body, bad.status)
		if out["code"] != bad.code || out["error"] == "" {
			t.Fatalf("%s: envelope %v, want code %q", bad.body, out, bad.code)
		}
	}
	after := getJSON(t, ts, "/v1/distance?u=0&v=2", 200)
	if before["distance"] != after["distance"] {
		t.Fatalf("rejected scripts changed an answer: %v → %v", before, after)
	}

	// Method and versioning: GET is 405; there is no legacy alias.
	resp, err := ts.Client().Get(ts.URL + "/v1/deltas")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/deltas: status %d, want 405", resp.StatusCode)
	}
	lr, err := ts.Client().Post(ts.URL+"/deltas", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	lr.Body.Close()
	if lr.StatusCode != http.StatusNotFound {
		t.Fatalf("legacy /deltas: status %d, want 404 (v1-only endpoint)", lr.StatusCode)
	}

	// One apply and seven rejections, all counted.
	if got := getJSON(t, ts, "/v1/stats", 200)["oracled.deltas.requests"]; got != float64(8) {
		t.Fatalf("oracled.deltas.requests = %v, want 8", got)
	}
}

// TestDeltasInvalidateMCB pins the staleness rule: a loaded cycle basis
// describes the pre-delta graph, so a successful apply retires it.
func TestDeltasInvalidateMCB(t *testing.T) {
	s, g, _ := testServer(t)
	ts := httptest.NewServer(s.mux)
	defer ts.Close()

	getJSON(t, ts, "/v1/mcb/cycle?i=0", 200)
	e0 := g.Edge(0)
	out := postJSON(t, ts, "/v1/deltas",
		fmt.Sprintf(`{"deltas":[{"op":"weight","edge":0,"weight":%g}]}`, float64(e0.W)+1), 200)
	if out["mcb_invalidated"] != true {
		t.Fatalf("response missing mcb_invalidated: %v", out)
	}
	getJSON(t, ts, "/v1/mcb/cycle?i=0", 503)
	if h := getJSON(t, ts, "/v1/healthz", 200); h["mcb"] != false {
		t.Fatalf("healthz still advertises mcb: %v", h)
	}
}

// TestDeltasUnderConcurrentTraffic hammers /v1/distance from several
// clients while a stream of delta scripts lands on /v1/deltas. No request
// may fail mid-swap, and after the last apply every answer must equal a
// from-scratch rebuild of the final graph.
func TestDeltasUnderConcurrentTraffic(t *testing.T) {
	s, g, _ := testServer(t)
	ts := httptest.NewServer(s.mux)
	defer ts.Close()
	n := int32(g.NumVertices())

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Vertices that exist in every epoch (inserts only grow).
				u, v := (w+i)%int(n), (i*7)%int(n)
				resp, err := ts.Client().Get(fmt.Sprintf("%s/v1/distance?u=%d&v=%d", ts.URL, u, v))
				if err != nil {
					t.Errorf("query (%d,%d): %v", u, v, err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != 200 {
					t.Errorf("query (%d,%d): status %d", u, v, resp.StatusCode)
					return
				}
			}
		}(w)
	}

	// Each round bumps edge 0's weight and adds one spanning chord; edge
	// IDs stay valid in every epoch because nothing is deleted.
	e0 := g.Edge(0)
	var all []apsp.Delta
	for round := 1; round <= 4; round++ {
		w := e0.W + graph.Weight(round)
		ds := []apsp.Delta{
			{Kind: apsp.DeltaWeight, Edge: 0, W: w},
			{Kind: apsp.DeltaInsert, U: int32(round), V: n - 1, W: 1},
		}
		body := fmt.Sprintf(
			`{"deltas":[{"op":"weight","edge":0,"weight":%g},{"op":"insert","u":%d,"v":%d,"weight":1}]}`,
			float64(w), round, n-1)
		postJSON(t, ts, "/v1/deltas", body, 200)
		all = append(all, ds...)
	}
	close(stop)
	wg.Wait()

	mutated, err := apsp.MutateGraph(g, all)
	if err != nil {
		t.Fatal(err)
	}
	want := apsp.NewOracle(mutated)
	nn := mutated.NumVertices()
	for u := 0; u < nn; u++ {
		for v := 0; v < nn; v++ {
			out := getJSON(t, ts, fmt.Sprintf("/v1/distance?u=%d&v=%d", u, v), 200)
			wd := want.Query(int32(u), int32(v))
			if wd >= apsp.Inf {
				if out["reachable"] != false {
					t.Fatalf("post-swap d(%d,%d): %v, want unreachable", u, v, out)
				}
				continue
			}
			if got := out["distance"].(float64); got != float64(wd) {
				t.Fatalf("post-swap d(%d,%d) = %v, rebuild says %v", u, v, got, wd)
			}
		}
	}

	// The apply path recorded its metrics.
	stats := getJSON(t, ts, "/v1/stats", 200)
	if _, ok := stats["oracled.deltas.requests"]; !ok {
		t.Fatalf("stats missing oracled.deltas.requests: %v", stats)
	}
}

// TestDeltaChainPersistence drives -save-snapshot through a chain of
// scripts: every apply rewrites the file with the post-delta oracle, so
// the file decodes — nothing replays — to an oracle answering
// Float64bits-equal to the live one on every pair. A save that fails
// leaves both the served answers and the file at the pre-script state.
func TestDeltaChainPersistence(t *testing.T) {
	s, g, _ := testServer(t)
	dir := filepath.Join(t.TempDir(), "snaps")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "oracle.snap")
	// What main does with -save-snapshot: write at boot, then per apply.
	if err := saveOracleSnapshot(path, liveOracle(t, s)); err != nil {
		t.Fatal(err)
	}
	s.savePath = path
	ts := httptest.NewServer(s.mux)
	defer ts.Close()

	e0 := g.Edge(0)
	n := int32(g.NumVertices())
	for _, body := range []string{
		fmt.Sprintf(`{"deltas":[{"op":"weight","edge":0,"weight":%g},{"op":"insert","u":0,"v":%d,"weight":2}]}`,
			float64(e0.W)+5, n), // grows the graph
		`{"deltas":[{"op":"delete","edge":1}]}`,
		fmt.Sprintf(`{"deltas":[{"op":"insert","u":1,"v":%d,"weight":1}]}`, n-1),
	} {
		postJSON(t, ts, "/v1/deltas", body, 200)
	}
	live := liveOracle(t, s)
	if live.G.NumVertices() != int(n)+1 || live.G.NumEdges() != g.NumEdges()+1 {
		t.Fatalf("live graph (%d,%d) after the scripts", live.G.NumVertices(), live.G.NumEdges())
	}
	sameEveryPair(t, loadFile(t, path), live)

	// The save fails: its directory is gone. Nothing may change. A second
	// link keeps the file's bytes visible; a save never writes in place.
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	kept := filepath.Join(t.TempDir(), "kept.snap")
	if err := os.Link(path, kept); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	env := postJSON(t, ts, "/v1/deltas", `{"deltas":[{"op":"insert","u":0,"v":1,"weight":0}]}`, 500)
	if env["code"] != "internal" {
		t.Fatalf("failed save: envelope %v, want code internal", env)
	}
	if liveOracle(t, s) != live {
		t.Fatal("a failed save swapped the post-script oracle in")
	}
	if d := getJSON(t, ts, "/v1/distance?u=0&v=1", 200); d["distance"] != float64(live.Query(0, 1)) {
		t.Fatalf("d(0,1) = %v after a failed save, want the pre-script %v", d["distance"], live.Query(0, 1))
	}
	after, err := os.ReadFile(kept)
	if err != nil || !bytes.Equal(after, before) {
		t.Fatalf("snapshot file changed by a failed save (err %v)", err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("a failed save recreated %s (stat err %v)", dir, err)
	}
}

// loadFile decodes an oracle snapshot file.
func loadFile(t *testing.T, path string) *apsp.Oracle {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	o, err := apsp.ReadOracle(f)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// sameEveryPair asserts got answers every pair Float64bits-equal to want.
func sameEveryPair(t *testing.T, got, want *apsp.Oracle) {
	t.Helper()
	n := want.G.NumVertices()
	if got.G.NumVertices() != n || got.G.NumEdges() != want.G.NumEdges() {
		t.Fatalf("graph (%d,%d), want (%d,%d)", got.G.NumVertices(), got.G.NumEdges(), n, want.G.NumEdges())
	}
	for u := int32(0); u < int32(n); u++ {
		for v := int32(0); v < int32(n); v++ {
			if a, b := got.Query(u, v), want.Query(u, v); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("d(%d,%d): %v, want %v", u, v, a, b)
			}
		}
	}
}
