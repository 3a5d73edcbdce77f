package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/api"
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
