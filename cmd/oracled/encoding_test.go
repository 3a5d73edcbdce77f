package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"

	"repro/internal/api"
	"repro/internal/apsp"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/qe"
)

// TestResponseEncoding pins the wire behaviour of the pooled typed
// encoders: exact field names and presence rules that the map-based
// handlers established (the internal/e2e scenarios read them too), plus
// the exact Content-Length the buffered writer now advertises.
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

// TestPairBodyMatchesEncodingJSON pins the appended /v1/distance body to
// what encoding/json writes for the same fields, across the float
// formatting boundaries ('f' against 'e' at 1e-6 and 1e21, the trimmed
// exponent, the smallest subnormal, the largest finite value) and the
// unreachable sentinel, which omits the distance. The headers are the
// ones every JSON response carries.
func TestPairBodyMatchesEncodingJSON(t *testing.T) {
	cases := []struct {
		u, v int32
		d    float64
	}{
		{0, 0, 0}, {0, 3, 1}, {1, 2, 0.1 + 0.2}, {2, 1, 1e-7}, {3, 4, 1e-6},
		{4, 5, 9.99e20}, {5, 6, 1e21}, {6, 7, 5e-324}, {7, 8, 1e-300},
		{8, 9, math.Nextafter(math.MaxFloat64, 0)}, {9, 10, 123.456}, {10, 11, 1e20},
		{math.MaxInt32, 0, 42}, {0, 1, math.MaxFloat64}, {1, 0, math.Inf(1)},
	}
	for _, c := range cases {
		ref := api.PairResponse{U: c.u, V: c.v, Reachable: c.d < apsp.Inf}
		if ref.Reachable {
			ref.Distance = &c.d
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(ref); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		writeJSON(rec, 200, pairAnswer{c.u, c.v, c.d})
		if got := rec.Body.String(); got != want.String() {
			t.Errorf("pair (%d, %d, %v): body %q, encoding/json writes %q", c.u, c.v, c.d, got, want.String())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("pair (%d, %d, %v): Content-Type %q", c.u, c.v, c.d, ct)
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(want.Len()) {
			t.Errorf("pair (%d, %d, %v): Content-Length %q, body is %d bytes", c.u, c.v, c.d, cl, want.Len())
		}
	}
}

// FuzzPairParam checks the raw-query parser against its definition: for
// any query string, pairParam accepts exactly when url.ParseQuery, Get
// and a 32-bit ParseInt of u and v both succeed, with the same values.
func FuzzPairParam(f *testing.F) {
	for _, q := range []string{
		"u=0&v=3", "v=3&u=0", "u=1&u=2&v=3&v=4", "u=&v=1", "u&v=1", "u=1&v=",
		"u=%31&v=2", "u=1&v=%2B2", "u=+1&v=2", "u=1;v=2", "u=1;&u=5&v=2", "u=1&x=;&v=2", "u=%zz&u=1&v=2",
		"u=2147483647&v=-2147483648", "u=2147483648&v=0", "u=-2147483649&v=0",
		"u=99999999999999999999&v=1", "&&u=1&=&v=2&", "u=1=2&v=3", "U=1&v=2", "u=0x1&v=1",
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, query string) {
		u, v, err := pairParam(query)
		q, _ := url.ParseQuery(query)
		wu, err1 := strconv.ParseInt(q.Get("u"), 10, 32)
		wv, err2 := strconv.ParseInt(q.Get("v"), 10, 32)
		if ok := err1 == nil && err2 == nil; ok != (err == nil) {
			t.Fatalf("pairParam(%q) err = %v; url.ParseQuery gives u %q (%v), v %q (%v)",
				query, err, q.Get("u"), err1, q.Get("v"), err2)
		} else if ok && (u != int32(wu) || v != int32(wv)) {
			t.Fatalf("pairParam(%q) = (%d, %d), url.ParseQuery gives (%d, %d)", query, u, v, wu, wv)
		}
	})
}
