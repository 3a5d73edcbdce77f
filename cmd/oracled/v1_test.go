package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/apsp"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/qe"
)

// TestErrorEnvelope asserts every failure shape renders as the uniform
// {"error", "code", "retry_after_ms"} envelope with the right code.
func TestErrorEnvelope(t *testing.T) {
	s, _, _ := testServer(t)
	ts := httptest.NewServer(s.mux)
	defer ts.Close()

	for _, tc := range []struct {
		path   string
		status int
		code   string
	}{
		{"/v1/distance?u=zero&v=1", 400, "bad_request"},
		{"/v1/mcb/cycle?i=notanumber", 400, "bad_request"},
		{"/v1/mcb/cycle?i=99999", 404, "not_found"},
		{"/v1/batch", 405, "method_not_allowed"}, // GET on a POST-only route
	} {
		out := getJSON(t, ts, tc.path, tc.status)
		if out["error"] == "" || out["error"] == nil {
			t.Fatalf("%s: missing error message: %v", tc.path, out)
		}
		if out["code"] != tc.code {
			t.Fatalf("%s: code = %v, want %q", tc.path, out["code"], tc.code)
		}
		if _, present := out["retry_after_ms"]; present {
			t.Fatalf("%s: retry_after_ms on a non-back-pressure error: %v", tc.path, out)
		}
	}

	// Missing basis → 503 "unavailable", still no retry hint.
	s2, _, _ := testServer(t)
	s2.basis = nil
	ts2 := httptest.NewServer(s2.mux)
	defer ts2.Close()
	out := getJSON(t, ts2, "/v1/mcb/cycle?i=0", 503)
	if out["code"] != "unavailable" {
		t.Fatalf("missing basis: code = %v, want unavailable", out["code"])
	}
}

// TestOverloadEnvelope drives the load-shedding path and asserts the 503
// carries code "overloaded" plus a machine-readable retry_after_ms that
// agrees with the Retry-After header.
func TestOverloadEnvelope(t *testing.T) {
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
		}
		done <- err
	}()
	<-began

	resp, err := ts.Client().Get(ts.URL + "/v1/distance?u=2&v=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("Retry-After = %q, want 1", resp.Header.Get("Retry-After"))
	}
	var out map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out["code"] != "overloaded" {
		t.Fatalf("code = %v, want overloaded", out["code"])
	}
	if out["retry_after_ms"] != float64(1000) {
		t.Fatalf("retry_after_ms = %v, want 1000", out["retry_after_ms"])
	}

	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("first request: %v", err)
	}
}
