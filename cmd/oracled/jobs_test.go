package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/apsp"
	"repro/internal/gen"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/qe"
	"repro/internal/registry"
)

// jobsServer builds a single-graph server with the async tier enabled:
// the jobs manager resolves graphs through the same registry the
// interactive routes use. gate, when non-nil, is closed by the test to
// unblock every Host acquisition — the hook for holding jobs in the
// running state deterministically.
func jobsServer(t *testing.T, gate chan struct{}) (*server, *registry.Registry) {
	t.Helper()
	g := gen.PlanarEars(40, 3, gen.Config{MaxWeight: 9}, gen.NewRNG(11))
	oracle := apsp.NewOracle(g)
	reg := obs.NewRegistry()
	engine := qe.New(oracle, qe.Config{MaxInflight: 8, QueueDepth: 64, Reg: reg})
	rg, err := registry.Open(registry.Config{Reg: reg})
	if err != nil {
		t.Fatal(err)
	}
	rg.AddStatic(registry.DefaultGraph, oracle, engine)

	jm, err := jobs.Open(jobs.Config{
		Dir: t.TempDir(),
		Host: func(ctx context.Context, name string) (jobs.GraphRef, error) {
			if gate != nil {
				select {
				case <-gate:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			return rg.Acquire(ctx, name)
		},
		Known:     func(name string) bool { _, ok := rg.Info(name); return ok },
		ChunkSize: 8,
		Reg:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		jm.Close(ctx)
		cancel()
		rg.Close(context.Background())
	})
	return newServer(rg, nil, jm, reg), rg
}

func waitJobState(t *testing.T, ts *httptest.Server, id string, want string) map[string]interface{} {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st := getJSON(t, ts, "/v1/jobs/"+id, 200)
		if st["state"] == want {
			return st
		}
		if s := st["state"].(string); s == "failed" || s == "cancelled" || s == "completed" {
			t.Fatalf("job %s reached %q (error %v) while waiting for %q", id, s, st["error"], want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %q", id, want)
	return nil
}

// TestJobsHTTPLifecycle drives a batch_matrix job end to end over HTTP:
// 202 on submit, status polling to completion with a full progress
// fraction, NDJSON results matching the engine's answers, offset resume,
// the uniform list shape, and the job-aware error envelopes.
func TestJobsHTTPLifecycle(t *testing.T) {
	s, _ := jobsServer(t, nil)
	ts := httptest.NewServer(s.mux)
	defer ts.Close()

	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"batch_matrix","sources":[0,1,2,3,4],"targets":[0,5,9]}`))
	if err != nil {
		t.Fatal(err)
	}
	var sub map[string]interface{}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id := sub["id"].(string)
	if id == "" || sub["state"] == "" {
		t.Fatalf("submit body: %v", sub)
	}

	fin := waitJobState(t, ts, id, "completed")
	if fin["progress"].(float64) != 1 || fin["done"].(float64) != 5 || fin["rows"].(float64) != 5 {
		t.Fatalf("final status: %v", fin)
	}

	// Full results stream: 5 NDJSON rows, one per source, in order.
	rr, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	if rr.StatusCode != 200 || rr.Header.Get("Content-Type") != "application/x-ndjson" {
		t.Fatalf("results: status %d, content-type %q", rr.StatusCode, rr.Header.Get("Content-Type"))
	}
	body, _ := io.ReadAll(rr.Body)
	rr.Body.Close()
	var lines []map[string]interface{}
	sc := bufio.NewScanner(strings.NewReader(string(body)))
	for sc.Scan() {
		var row map[string]interface{}
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("bad NDJSON row %q: %v", sc.Text(), err)
		}
		lines = append(lines, row)
	}
	if len(lines) != 5 {
		t.Fatalf("%d result rows, want 5", len(lines))
	}
	for i, row := range lines {
		if int(row["i"].(float64)) != i || len(row["dist"].([]interface{})) != 3 {
			t.Fatalf("row %d: %v", i, row)
		}
	}

	// Byte-offset resume: presenting the full length yields an empty 200;
	// a mid-line offset is a 400 bad_request.
	if n := int64(fin["results_bytes"].(float64)); n != int64(len(body)) {
		t.Fatalf("results_bytes %d, body %d", n, len(body))
	}
	tail, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id + "/results?offset=" + itoa(len(body)))
	if err != nil {
		t.Fatal(err)
	}
	rest, _ := io.ReadAll(tail.Body)
	tail.Body.Close()
	if tail.StatusCode != 200 || len(rest) != 0 {
		t.Fatalf("resume at end: status %d body %q", tail.StatusCode, rest)
	}
	if out := getJSON(t, ts, "/v1/jobs/"+id+"/results?offset=1", 400); out["code"] != "bad_request" {
		t.Fatalf("mid-line offset envelope: %v", out)
	}

	// Uniform collection shape.
	list := getJSON(t, ts, "/v1/jobs", 200)
	items := list["items"].([]interface{})
	if list["total"].(float64) != 1 || len(items) != 1 || items[0].(map[string]interface{})["id"] != id {
		t.Fatalf("jobs list: %v", list)
	}

	// Job-aware envelopes: unknown id carries job_not_found + job_id.
	for _, p := range []string{"/v1/jobs/nope", "/v1/jobs/nope/results"} {
		out := getJSON(t, ts, p, 404)
		if out["code"] != "job_not_found" || out["job_id"] != "nope" {
			t.Fatalf("%s envelope: %v", p, out)
		}
	}
	// Invalid specs are 400 bad_request.
	if out := postJSON(t, ts, "/v1/jobs", `{"kind":"nope"}`, 400); out["code"] != "bad_request" {
		t.Fatalf("bad kind envelope: %v", out)
	}
	if out := postJSON(t, ts, "/v1/jobs", `{"kind":"bc","graph":"ghost"}`, 400); out["code"] != "bad_request" {
		t.Fatalf("unknown graph envelope: %v", out)
	}
}

// TestJobsHTTPCancelGone: a queued job cancelled over HTTP answers 410
// job_cancelled on its results route; streaming a live job follows it to
// completion in one long response.
func TestJobsHTTPCancelGone(t *testing.T) {
	gate := make(chan struct{})
	s, _ := jobsServer(t, gate)
	ts := httptest.NewServer(s.mux)
	defer ts.Close()

	// The first two jobs take both run slots and block in Host on the gate
	// (running, no progress), which keeps the third queued.
	first := postJSON(t, ts, "/v1/jobs", `{"kind":"bc"}`, 202)
	postJSON(t, ts, "/v1/jobs", `{"kind":"bc"}`, 202)
	queued := postJSON(t, ts, "/v1/jobs", `{"kind":"bc","samples":4,"seed":7}`, 202)
	sid := queued["id"].(string)

	// Cancel the pending job: DELETE answers its terminal status and is
	// idempotent.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+sid, nil)
	for i := 0; i < 2; i++ {
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var st map[string]interface{}
		json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if resp.StatusCode != 200 || st["state"] != "cancelled" {
			t.Fatalf("cancel #%d: status %d, %v", i, resp.StatusCode, st)
		}
	}
	if out := getJSON(t, ts, "/v1/jobs/"+sid+"/results", 410); out["code"] != "job_cancelled" || out["job_id"] != sid {
		t.Fatalf("cancelled results envelope: %v", out)
	}

	// Open the results stream of the gated job before any results exist,
	// then release the gate: the one GET follows the job to completion.
	fid := first["id"].(string)
	done := make(chan []byte, 1)
	go func() {
		resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + fid + "/results")
		if err != nil {
			done <- nil
			return
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		done <- b
	}()
	time.Sleep(20 * time.Millisecond) // let the follower attach pre-gate
	close(gate)
	body := <-done
	if body == nil {
		t.Fatal("follower stream failed")
	}
	if n := strings.Count(string(body), "\n"); n != 40 {
		t.Fatalf("followed stream has %d rows, want 40", n)
	}
	fin := waitJobState(t, ts, fid, "completed")
	if fin["progress"].(float64) != 1 {
		t.Fatalf("gated job final: %v", fin)
	}
}

// TestJobsDisabled: without -jobs-dir every jobs route is 503 with the
// stable "unavailable" code, so clients can distinguish "tier off" from
// "job missing".
func TestJobsDisabled(t *testing.T) {
	s, _, _ := testServer(t)
	ts := httptest.NewServer(s.mux)
	defer ts.Close()
	for _, p := range []string{"/v1/jobs", "/v1/jobs/j0000000001", "/v1/jobs/j0000000001/results"} {
		out := getJSON(t, ts, p, 503)
		if out["code"] != "unavailable" {
			t.Fatalf("%s envelope: %v", p, out)
		}
	}
}

func itoa(n int) string {
	b, _ := json.Marshal(n)
	return string(b)
}

// TestKeysetPage holds the one paginator of /v1/graphs, /v1/jobs and
// /v1/cluster to its contract, on each listing's cursor format: pages
// start strictly after the cursor, limit ≤ 0 returns everything, and next
// is the last key of a truncated page.
func TestKeysetPage(t *testing.T) {
	id := func(s string) string { return s }
	// walk pages keys at limit and returns what it saw, page by page.
	walk := func(keys []string, past func(key, cursor string) bool, limit int) (got []string, pages int) {
		cursor := ""
		for {
			page, next := keysetPage(keys, func(k string) bool { return cursor == "" || past(k, cursor) }, id, limit)
			got = append(got, page...)
			pages++
			if next == "" {
				return got, pages
			}
			cursor = next
		}
	}
	after := func(key, cursor string) bool { return key > cursor }

	// Graph names.
	names := []string{"a", "b", "c", "d", "e"}
	if got, pages := walk(names, after, 2); pages != 3 || strings.Join(got, ",") != strings.Join(names, ",") {
		t.Fatalf("paged names = %v over %d pages, want %v over 3", got, pages, names)
	}
	pageAfter := func(cursor string, limit int) ([]string, string) {
		return keysetPage(names, func(k string) bool { return k > cursor }, id, limit)
	}
	if items, next := pageAfter("", 0); len(items) != len(names) || next != "" {
		t.Fatalf("unlimited page: %d items, next %q", len(items), next)
	}
	if items, next := pageAfter("e", 2); len(items) != 0 || next != "" {
		t.Fatalf("past-the-end page: %d items, next %q", len(items), next)
	}
	// A cursor naming a removed graph still lands between its neighbours.
	if items, _ := pageAfter("bb", 2); strings.Join(items, ",") != "c,d" {
		t.Fatalf("between-names cursor page = %v", items)
	}

	// Job IDs.
	ids := []string{"j0000000001", "j0000000002", "j0000000003", "j0000000004", "j0000000005"}
	if got, pages := walk(ids, after, 2); pages != 3 || strings.Join(got, ",") != strings.Join(ids, ",") {
		t.Fatalf("paged ids = %v over %d pages, want %v over 3", got, pages, ids)
	}

	// Decimal shard IDs order as numbers: "10" follows "9".
	var shards []string
	for i := 0; i < 12; i++ {
		shards = append(shards, strconv.Itoa(i))
	}
	numeric := func(key, cursor string) bool {
		k, _ := strconv.Atoi(key)
		c, _ := strconv.Atoi(cursor)
		return k > c
	}
	if got, pages := walk(shards, numeric, 5); pages != 3 || strings.Join(got, ",") != strings.Join(shards, ",") {
		t.Fatalf("paged shard ids = %v over %d pages, want %v over 3", got, pages, shards)
	}
}
