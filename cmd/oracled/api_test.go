package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/apsp"
	"repro/internal/obs"
)

// TestMethodsEnforcedByTable walks api.Routes() — both spellings of every
// graph-scoped route — against five methods: an op the table lists is
// never answered 405, and one it does not list is answered by the
// table-derived fallback with the uniform envelope and an Allow header
// naming exactly the route's ops. Path parameters are filled with values
// that resolve (the default graph) or cleanly 404/503.
func TestMethodsEnforcedByTable(t *testing.T) {
	s, _, _ := testServer(t)
	ts := httptest.NewServer(s.mux)
	defer ts.Close()

	fill := strings.NewReplacer("{name}", "default", "{id}", "0")
	for _, rt := range api.Routes() {
		paths := []string{rt.Path}
		if rt.GraphScoped {
			paths = append(paths, api.Scoped(rt.Path))
		}
		listed := map[string]bool{}
		var allow []string
		for _, op := range rt.Ops {
			listed[op.Method] = true
			allow = append(allow, op.Method)
		}
		// The unversioned spelling is gone: a plain mux 404, no envelope.
		if resp, err := ts.Client().Get(ts.URL + fill.Replace(strings.TrimPrefix(rt.Path, "/v1"))); err != nil {
			t.Fatal(err)
		} else if resp.Body.Close(); resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", strings.TrimPrefix(rt.Path, "/v1"), resp.StatusCode)
		}
		for _, p := range paths {
			for _, method := range []string{"GET", "POST", "PUT", "DELETE", "PATCH"} {
				req, err := http.NewRequest(method, ts.URL+fill.Replace(p), nil)
				if err != nil {
					t.Fatal(err)
				}
				resp, err := ts.Client().Do(req)
				if err != nil {
					t.Fatal(err)
				}
				var env map[string]interface{}
				decodeErr := json.NewDecoder(resp.Body).Decode(&env)
				resp.Body.Close()
				if listed[method] {
					if resp.StatusCode == http.StatusMethodNotAllowed {
						t.Errorf("%s %s: listed op answered 405", method, p)
					}
					continue
				}
				if resp.StatusCode != http.StatusMethodNotAllowed {
					t.Errorf("%s %s: status %d, want 405", method, p, resp.StatusCode)
					continue
				}
				if decodeErr != nil || env["code"] != "method_not_allowed" || env["error"] == "" {
					t.Errorf("%s %s: envelope %v (decode: %v)", method, p, env, decodeErr)
				}
				if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
					t.Errorf("%s %s: Content-Type %q", method, p, ct)
				}
				if got, want := resp.Header.Get("Allow"), strings.Join(allow, ", "); got != want {
					t.Errorf("%s %s: Allow %q, want %q", method, p, got, want)
				}
			}
		}
	}
}

// TestMountRefusesDoctoredTable: the mux cannot drift from the route
// table because the mount loop refuses to build one that has — an op
// with no handler binding panics, and so does a binding for an op the
// table does not list.
func TestMountRefusesDoctoredTable(t *testing.T) {
	h := http.NotFoundHandler()
	routes := []api.Route{{Path: "/v1/x", Ops: []api.Op{{Method: "GET"}, {Method: "POST"}}}}
	for name, binds := range map[string]map[string]http.Handler{
		"op without binding": {"GET /v1/x": h},
		"binding without op": {"GET /v1/x": h, "POST /v1/x": h, "DELETE /v1/x": h},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: mountRoutes did not panic", name)
				}
			}()
			mountRoutes(http.NewServeMux(), routes, binds, obs.NewRegistry().Counter("rejected"))
		}()
	}
	// The undoctored shape mounts.
	mountRoutes(http.NewServeMux(), routes, map[string]http.Handler{"GET /v1/x": h, "POST /v1/x": h},
		obs.NewRegistry().Counter("rejected"))
}

// TestOpenAPIDeterministic: generating twice yields identical bytes —
// the property the CI diff against the checked-in file relies on.
func TestOpenAPIDeterministic(t *testing.T) {
	a, b := api.OpenAPI(), api.OpenAPI()
	if string(a) != string(b) {
		t.Fatal("api.OpenAPI() is not deterministic")
	}
	if len(a) == 0 {
		t.Fatal("api.OpenAPI() returned an empty document")
	}
}

// TestOpsSendDeclaredTypes closes the last gap between the spec and the
// daemon: a handler answering with a struct other than the one its op
// declares. Every op of api.Routes that can answer 2xx on a test server
// gets a valid request, and its body's top-level keys must be json names
// of the declared Response type (a strict decode of the body into it)
// and must include every member that type always encodes (only omitempty
// members may be absent). Requests run in table order, so a job exists
// before its status is read and a graph before it is removed.
func TestOpsSendDeclaredTypes(t *testing.T) {
	serve := func(s *server) *httptest.Server {
		ts := httptest.NewServer(s.mux)
		t.Cleanup(ts.Close)
		return ts
	}
	single, _, _ := testServer(t)
	dir, graphs, _ := snapDir(t, "east")
	tenants, _ := multiServer(t, dir, 4)
	async, _ := jobsServer(t, nil)
	frontend, _, _, _ := testFrontend(t, 0)
	one, multi, jobsTS, cluster := serve(single), serve(tenants), serve(async), serve(frontend)
	var snap bytes.Buffer
	if _, err := apsp.NewOracle(graphs["east"]).WriteTo(&snap); err != nil {
		t.Fatal(err)
	}

	calls := map[string]struct {
		ts         *httptest.Server
		path, body string
	}{
		"GET /v1/distance":            {one, "/v1/distance?u=0&v=3", ""},
		"GET /v1/path":                {one, "/v1/path?u=0&v=3", ""},
		"POST /v1/batch":              {one, "/v1/batch", `{"sources":[0,1],"targets":[2,3]}`},
		"GET /v1/mcb/cycle":           {one, "/v1/mcb/cycle?i=0", ""},
		"POST /v1/deltas":             {one, "/v1/deltas", `{"deltas":[{"op":"weight","edge":0,"weight":5}]}`},
		"GET /v1/graphs":              {one, "/v1/graphs", ""},
		"GET /v1/graphs/{name}":       {one, "/v1/graphs/default", ""},
		"PUT /v1/graphs/{name}":       {multi, "/v1/graphs/north", snap.String()},
		"DELETE /v1/graphs/{name}":    {multi, "/v1/graphs/north", ""},
		"GET /v1/cluster":             {cluster, "/v1/cluster", ""},
		"GET /v1/cluster/shards/{id}": {cluster, "/v1/cluster/shards/1", ""},
		"GET /v1/jobs":                {jobsTS, "/v1/jobs", ""},
		"POST /v1/jobs":               {jobsTS, "/v1/jobs", `{"kind":"bc"}`},
		"GET /v1/jobs/{id}":           {jobsTS, "/v1/jobs/{id}", ""},
		"DELETE /v1/jobs/{id}":        {jobsTS, "/v1/jobs/{id}", ""},
		"GET /v1/healthz":             {one, "/v1/healthz", ""},
		"GET /v1/stats":               {one, "/v1/stats", ""},
	}
	var jobID string
	for _, rt := range api.Routes() {
		for _, op := range rt.Ops {
			key := op.Method + " " + rt.Path
			c, ok := calls[key]
			delete(calls, key)
			if op.NDJSON {
				continue
			}
			if !ok {
				t.Errorf("%s: no request for this op", key)
				continue
			}
			req, err := http.NewRequest(op.Method, c.ts.URL+strings.ReplaceAll(c.path, "{id}", jobID), strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := c.ts.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			want := http.StatusOK
			if op.Accepted {
				want = http.StatusAccepted
			}
			if resp.StatusCode != want {
				t.Errorf("%s: status %d, want %d: %s", key, resp.StatusCode, want, body)
				continue
			}
			var got map[string]interface{}
			if err := json.Unmarshal(body, &got); err != nil {
				t.Errorf("%s: body is not a JSON object: %v", key, err)
				continue
			}
			typ := reflect.TypeOf(op.Response)
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			if err := dec.Decode(reflect.New(typ).Interface()); err != nil {
				t.Errorf("%s: body does not decode as the declared %v: %v", key, typ, err)
			}
			zero, _ := json.Marshal(reflect.Zero(typ).Interface())
			var always map[string]interface{}
			json.Unmarshal(zero, &always)
			for name := range always {
				if _, ok := got[name]; !ok {
					t.Errorf("%s: body lacks %q, which %v always encodes", key, name, typ)
				}
			}
			if key == "POST /v1/jobs" {
				jobID, _ = got["id"].(string)
			}
		}
	}
	for key := range calls {
		t.Errorf("%s: request for an op the route table does not list", key)
	}
}
