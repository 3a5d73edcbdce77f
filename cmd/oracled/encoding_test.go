package main

import (
	"encoding/json"
	"net/http/httptest"
	"strconv"
	"testing"

	"repro/internal/apsp"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/qe"
)

// TestResponseEncoding pins the wire behaviour of the pooled typed
// encoders: exact field names and presence rules that the map-based
// handlers established (and the CI smoke greps depend on), plus the exact
// Content-Length the buffered writer now advertises.
func TestResponseEncoding(t *testing.T) {
	s, _, _ := testServer(t)
	ts := httptest.NewServer(s.mux)
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/v1/distance?u=0&v=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if cl := resp.Header.Get("Content-Length"); cl == "" {
		t.Fatal("no Content-Length on buffered response")
	} else if n, _ := strconv.Atoi(cl); n <= 0 {
		t.Fatalf("bad Content-Length %q", cl)
	}
	var out struct {
		U         *int32   `json:"u"`
		V         *int32   `json:"v"`
		Reachable *bool    `json:"reachable"`
		Distance  *float64 `json:"distance"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out.U == nil || out.V == nil || out.Reachable == nil || out.Distance == nil {
		t.Fatalf("missing fields: %+v", out)
	}
	if *out.U != 0 || *out.V != 3 || !*out.Reachable {
		t.Fatalf("wrong values: %+v", out)
	}

	// A zero-distance pair must still carry the distance field (the
	// pointer-omitempty rule: only unreachable omits it).
	self := getJSON(t, ts, "/v1/distance?u=0&v=0", 200)
	if d, ok := self["distance"]; !ok || d != float64(0) {
		t.Fatalf("self distance: %v", self)
	}
}

// TestBatchTooLargeHTTP drives the engine's MaxBatchPairs cap through the
// HTTP surface: an over-cap matrix is a 400 with the uniform envelope,
// and nothing is computed.
func TestBatchTooLargeHTTP(t *testing.T) {
	reg := obs.NewRegistry()
	s, _ := testServerEngine(t, func(_ *graph.Graph, o *apsp.Oracle) *qe.Engine {
		return qe.New(o, qe.Config{MaxInflight: 2, MaxBatchPairs: 8, Reg: reg})
	})
	ts := httptest.NewServer(s.mux)
	defer ts.Close()

	out := postJSON(t, ts, "/v1/batch", `{"sources":[0,1,2],"targets":[0,1,2]}`, 400)
	if out["code"] != "bad_request" || out["error"] == "" {
		t.Fatalf("over-cap envelope: %v", out)
	}
	if built := reg.Counter("qe.rows.built").Value(); built != 0 {
		t.Fatalf("over-cap batch built %d rows, want 0", built)
	}
	if ok := postJSON(t, ts, "/v1/batch", `{"sources":[0,1],"targets":[0,1,2]}`, 200); ok["sources"] != float64(2) {
		t.Fatalf("under-cap batch: %v", ok)
	}
}

// TestCycleIndexParse pins the /v1/mcb/cycle index parser: values beyond
// int32 are a clean 400 (Atoi used to accept them on 64-bit platforms),
// as is garbage; valid small indices still work.
func TestCycleIndexParse(t *testing.T) {
	s, _, _ := testServer(t)
	ts := httptest.NewServer(s.mux)
	defer ts.Close()

	for _, bad := range []string{"4294967296", "9223372036854775807", "1e3", ""} {
		out := getJSON(t, ts, "/v1/mcb/cycle?i="+bad, 400)
		if out["code"] != "bad_request" {
			t.Fatalf("i=%q: %v", bad, out)
		}
	}
	if out := getJSON(t, ts, "/v1/mcb/cycle?i=0", 200); out["index"] != float64(0) {
		t.Fatalf("cycle 0: %v", out)
	}
}
