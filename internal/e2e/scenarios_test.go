//go:build linux

package e2e

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// num reads a numeric /v1/stats or status field; a missing key is -1.
func num(m map[string]any, key string) float64 {
	if v, ok := m[key].(float64); ok {
		return v
	}
	return -1
}

// noBuild fails if stats carry any apsp.build* key: the daemon ran a
// build phase.
func noBuild(t *testing.T, stats map[string]any) {
	t.Helper()
	for k := range stats {
		if strings.HasPrefix(k, "apsp.build") {
			t.Errorf("stats carry %q: the daemon ran a build phase", k)
		}
	}
}

// wantDistance fails unless d answers d(u,v) = want.
func wantDistance(t *testing.T, d *daemon, u, v int, want float64) {
	t.Helper()
	if got := d.json(fmt.Sprintf("/v1/distance?u=%d&v=%d", u, v))["distance"]; got != want {
		t.Errorf("d(%d,%d) = %v, want %v", u, v, got, want)
	}
}

// TestServeDrain: a -file boot answers, and SIGTERM drains and exits 0.
func TestServeDrain(t *testing.T) {
	needBinaries(t)
	dir := t.TempDir()
	run(t, dir, "graphgen", "-family", "ring", "-n", "64", "-max-weight", "1", "-o", "ring.earg")
	d := serve(t, dir, "-file", "ring.earg")
	wantDistance(t, d, 0, 3, 3) // unit 64-ring: the short way round
	d.signal(syscall.SIGTERM)
	if code := d.exitCode(); code != 0 {
		t.Fatalf("exit %d after SIGTERM, want 0:\n%s", code, d.stderrText())
	}
	if !strings.Contains(d.stderrText(), "drained") {
		t.Errorf("no drain on SIGTERM:\n%s", d.stderrText())
	}
}

// TestShedUnderLoad: with one inflight slot and no queue, a query that
// arrives while a heavy batch holds the slot is shed with 503 and
// Retry-After, and the process-global qe.shed counts it.
func TestShedUnderLoad(t *testing.T) {
	needBinaries(t)
	dir := t.TempDir()
	run(t, dir, "graphgen", "-family", "ring", "-n", "50000", "-max-weight", "1", "-o", "bigring.earg")
	d := serve(t, dir, "-file", "bigring.earg", "-max-inflight", "1", "-queue-depth", "0", "-deadline", "60s")

	// 200 rows of 50 000 entries hold the slot for ≈ 0.2 s (×30 under
	// -race).
	sources := make([]string, 200)
	for i := range sources {
		sources[i] = fmt.Sprint(i * 250)
	}
	batch := fmt.Sprintf(`{"sources":[%s],"targets":[0,1,2]}`, strings.Join(sources, ","))
	done := make(chan int, 1)
	go func() {
		code := 0
		if resp, err := http.Post(d.url+"/v1/batch", "application/json", strings.NewReader(batch)); err == nil {
			resp.Body.Close()
			code = resp.StatusCode
		}
		done <- code
	}()
	// /v1/stats is not admitted, so it shows the batch holding the slot.
	eventually(t, func() (bool, string) { return num(d.stats(), "qe.inflight") == 1, "the batch never held the slot" })
	shed := false
	for !shed {
		select {
		case code := <-done:
			t.Fatalf("the batch finished (status %d) before a query was shed", code)
		default:
		}
		resp, err := http.Get(d.url + "/v1/distance?u=0&v=5")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
		case http.StatusServiceUnavailable:
			if ra := resp.Header.Get("Retry-After"); ra != "1" {
				t.Errorf("503 with Retry-After %q, want 1", ra)
			}
			shed = true
		default:
			t.Fatalf("competing query: status %d", resp.StatusCode)
		}
	}
	if n := num(d.stats(), "qe.shed"); n < 1 {
		t.Errorf("qe.shed = %v, want ≥ 1", n)
	}
}

// TestSnapshotBoot: an apsp -snapshot file boots a daemon that answers
// byte-identically to a -file boot by decoding alone. A corrupted
// snapshot exits 1 naming the snapshot, and a contradictory flag set
// exits 2.
func TestSnapshotBoot(t *testing.T) {
	needBinaries(t)
	dir := t.TempDir()
	run(t, dir, "graphgen", "-family", "planar", "-n", "400", "-o", "city.earg")
	run(t, dir, "apsp", "-file", "city.earg", "-snapshot", "city.snap", "-query", "0,17")
	ref := serve(t, dir, "-file", "city.earg")
	got := serve(t, dir, "-load-snapshot", "city.snap")

	equalBodies(t, ref, got, "/v1/distance?u=0&v=17", "/v1/distance?u=399&v=3", "/v1/path?u=0&v=17")
	batch := `{"sources":[0,17,123,399],"targets":[0,1,250]}`
	if a, b := ref.must("/v1/batch", batch), got.must("/v1/batch", batch); !bytes.Equal(a, b) {
		t.Errorf("/v1/batch differs:\n%s\n%s", a, b)
	}
	st := got.stats()
	if n := num(st, "snapshot.loads"); n != 1 {
		t.Errorf("snapshot boot: snapshot.loads = %v, want 1", n)
	}
	if timer, _ := st["snapshot"].(map[string]any); timer["load_us"] == nil {
		t.Errorf("snapshot boot: no snapshot.load timer in %v", st["snapshot"])
	}
	noBuild(t, st)
	if n := num(ref.stats(), "apsp.builds"); n != 1 {
		t.Errorf("-file boot: apsp.builds = %v, want 1", n)
	}

	snap, err := os.ReadFile(filepath.Join(dir, "city.snap"))
	if err != nil {
		t.Fatal(err)
	}
	snap[2000] ^= 0xff
	if err := os.WriteFile(filepath.Join(dir, "corrupt.snap"), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	bad := spawn(t, dir, "-load-snapshot", "corrupt.snap")
	if code := bad.exitCode(); code != 1 || !strings.Contains(bad.stderrText(), "snapshot") {
		t.Errorf("corrupt snapshot: exit %d, want 1 with a snapshot diagnostic:\n%s", code, bad.stderrText())
	}
	conflict := spawn(t, dir, "-snapshot-dir", ".", "-file", "city.earg")
	if code := conflict.exitCode(); code != 2 || !strings.Contains(conflict.stderrText(), "snapshot-dir") {
		t.Errorf("-snapshot-dir with -file: exit %d, want 2 naming the flag:\n%s", code, conflict.stderrText())
	}
}

// TestGCPacer: a snapshot boot of blocks (cond_mat_2003 at scale 0.25,
// the point workloads' graph, whose live heap is mostly pointer-free
// tables) paces its collector. After 2 000 point queries its memory limit
// sits at or above the live heap and below twice it plus the runtime's
// non-heap bytes, the whole footprint at which GOGC=100 alone puts the
// heap goal, and those queries ran at most 40 cycles: a limit the
// runtime's own memory crowds collects every few requests. With
// GOMEMLIMIT in its environment a daemon leaves the runtime alone and sets
// no gc.* gauge, and it answers every query as the paced daemon did.
func TestGCPacer(t *testing.T) {
	needBinaries(t)
	dir := t.TempDir()
	run(t, dir, "apsp", "-dataset", "cond_mat_2003", "-scale", "0.25", "-snapshot", "blocks.snap")
	gauges := []string{"gc.live_bytes", "gc.scan_bytes", "gc.nonheap_bytes", "gc.limit_bytes", "gc.cycles", "gc.cpu_ms"}
	query := func(d *daemon) [][]byte {
		n := int(num(d.json("/v1/healthz"), "vertices"))
		out := make([][]byte, 2000)
		for i := range out {
			out[i] = d.must(fmt.Sprintf("/v1/distance?u=%d&v=%d", i*7919%n, i*104729%n))
		}
		return out
	}

	paced := serve(t, dir, "-load-snapshot", "blocks.snap")
	cycles := num(paced.stats(), "gc.cycles") // 0 until the pacer's first cycle
	want := query(paced)
	var st map[string]any
	eventually(t, func() (bool, string) {
		st = paced.stats()
		return num(st, "gc.limit_bytes") > 0, fmt.Sprintf("the pacer set no limit: gc.limit_bytes = %v", num(st, "gc.limit_bytes"))
	})
	live, limit, nonheap := num(st, "gc.live_bytes"), num(st, "gc.limit_bytes"), num(st, "gc.nonheap_bytes")
	for _, k := range gauges {
		t.Logf("%s = %v", k, num(st, k))
	}
	if ran := num(st, "gc.cycles") - cycles; ran > 40 || live <= 0 || nonheap <= 0 || limit < live || limit >= 2*live+nonheap {
		t.Errorf("paced: want at most 40 cycles in the queries and live ≤ limit < 2·live + non-heap, got (gc.cycles %v before them)", cycles)
		for _, k := range gauges {
			t.Errorf("  %s = %v", k, num(st, k))
		}
	}
	paced.kill()

	tuned := serveEnv(t, dir, []string{"GOMEMLIMIT=1GiB"}, "-load-snapshot", "blocks.snap")
	for i, b := range query(tuned) {
		if !bytes.Equal(b, want[i]) {
			t.Fatalf("query %d: %s with GOMEMLIMIT, %s paced", i, b, want[i])
		}
	}
	st = tuned.stats()
	for _, k := range gauges {
		if v := num(st, k); v > 0 {
			t.Errorf("GOMEMLIMIT set: %s = %v, want it unset", k, v)
		}
	}
}

// TestDeltaReboot: /v1/deltas rewrites the -save-snapshot file, and a
// reboot from it serves the post-delta answers with no build and no
// delta applied.
func TestDeltaReboot(t *testing.T) {
	needBinaries(t)
	dir := t.TempDir()
	run(t, dir, "graphgen", "-family", "ring", "-n", "64", "-max-weight", "1", "-o", "ring.earg")
	d := serve(t, dir, "-file", "ring.earg", "-save-snapshot", "ring.snap")
	wantDistance(t, d, 0, 32, 32)
	// Edge 0 (0–1) goes to weight 5, and a unit chord 0–32 short-circuits
	// the ring: d(0,32) = 1, and d(0,1) = 5 by the direct edge.
	out := d.json("/v1/deltas", `{"deltas":[{"op":"weight","edge":0,"weight":5},{"op":"insert","u":0,"v":32,"weight":1}]}`)
	if out["applied"] != 2.0 {
		t.Fatalf("deltas: %v, want applied 2", out)
	}
	wantDistance(t, d, 0, 32, 1)
	wantDistance(t, d, 0, 1, 5)
	if n := num(d.stats(), "delta.applies"); n != 1 {
		t.Errorf("delta.applies = %v, want 1", n)
	}
	d.signal(syscall.SIGTERM)
	if code := d.exitCode(); code != 0 {
		t.Fatalf("exit %d after SIGTERM, want 0", code)
	}

	r := serve(t, dir, "-load-snapshot", "ring.snap")
	wantDistance(t, r, 0, 32, 1)
	wantDistance(t, r, 0, 1, 5)
	st := r.stats()
	if n := num(st, "snapshot.loads"); n != 1 {
		t.Errorf("reboot: snapshot.loads = %v, want 1", n)
	}
	noBuild(t, st)
	if n := num(st, "delta.applies"); n > 0 {
		t.Errorf("reboot: delta.applies = %v, want none", n)
	}
}

// TestJobResumeAfterKill: a bc job SIGKILLed mid-run resumes from its
// checkpoint when a daemon restarts over the same -jobs-dir: progress
// never falls back past the last checkpoint, and the job completes with
// one NDJSON row per vertex.
func TestJobResumeAfterKill(t *testing.T) {
	needBinaries(t)
	const n, chunk = 3000, 4
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "snaps"), 0o755); err != nil {
		t.Fatal(err)
	}
	run(t, dir, "graphgen", "-family", "planar", "-n", fmt.Sprint(n), "-o", "big.earg")
	run(t, dir, "apsp", "-file", "big.earg", "-snapshot", "snaps/big.snap", "-query", "0,1")
	args := []string{"-snapshot-dir", "snaps", "-jobs-dir", "jobs", "-job-chunk", fmt.Sprint(chunk)}
	d := serve(t, dir, args...)
	code, body := d.post("/v1/jobs", `{"kind":"bc","graph":"big"}`)
	var sub map[string]any
	if err := json.Unmarshal(body, &sub); code != http.StatusAccepted || err != nil {
		t.Fatalf("submit: status %d, %s", code, body)
	}
	job := "/v1/jobs/" + sub["id"].(string)

	killedAt := 0
	eventually(t, func() (bool, string) {
		st := d.json(job)
		if killedAt = int(num(st, "done")); killedAt <= 2*chunk {
			return false, fmt.Sprintf("no progress: %v", st)
		}
		if st["state"] != "running" {
			t.Fatalf("the job left the running state before the kill: %v", st)
		}
		return true, ""
	})
	d.kill()

	r := serve(t, dir, args...)
	// Progress reported before the kill was at most one chunk ahead of
	// the durable checkpoint.
	prev := killedAt - chunk
	eventually(t, func() (bool, string) {
		st := r.json(job)
		done := int(num(st, "done"))
		if done < prev {
			t.Fatalf("progress fell back to %d after the restart (killed at %d)", done, killedAt)
		}
		prev = done
		switch st["state"] {
		case "completed":
			return true, ""
		case "failed", "cancelled":
			t.Fatalf("resumed job: %v", st)
		}
		return false, fmt.Sprintf("not completed: %v", st)
	})
	lines := strings.Split(strings.TrimSuffix(string(r.must(job+"/results")), "\n"), "\n")
	if len(lines) != n {
		t.Fatalf("%d result rows, want %d", len(lines), n)
	}
	for i, line := range lines {
		if !strings.HasPrefix(line, fmt.Sprintf(`{"i":%d,`, i)) {
			t.Fatalf("row %d: %s", i, line)
		}
	}
	if c := num(r.stats(), "jobs.resumed"); c != 1 {
		t.Errorf("jobs.resumed = %v, want 1", c)
	}
}

// TestShardedFrontend: two shard daemons fed by shardplan and a frontend
// over them answer byte-identically to a monolith. With shard 1 killed,
// a query that needs it is a 503 shard_unavailable naming shard 1 (never
// a wrong answer), and a shard restarted at the same address brings the
// frontend back without a restart.
func TestShardedFrontend(t *testing.T) {
	needBinaries(t)
	dir := t.TempDir()
	// Sparse gnm with subdivision: many biconnected blocks and bridges, so
	// the plan splits and queries cross shards.
	run(t, dir, "graphgen", "-family", "gnm", "-n", "200", "-m", "240", "-subdivide", "0.3", "-seed", "7", "-o", "g.earg")
	run(t, dir, "shardplan", "-file", "g.earg", "-shards", "2", "-out", "cluster")
	mono := serve(t, dir, "-file", "g.earg")
	s0 := serve(t, dir, "-shard-snapshot", "cluster/shard-0.snap")
	s1 := serve(t, dir, "-shard-snapshot", "cluster/shard-1.snap")
	front := serve(t, dir, "-cluster-plan", "cluster/plan.earplan", "-cluster-shards", s0.url+","+s1.url)

	equalBodies(t, mono, front, "/v1/distance?u=0&v=199", "/v1/distance?u=17&v=42", "/v1/distance?u=5&v=5", "/v1/distance?u=100&v=3")
	batch := `{"sources":[0,17,42,100,199],"targets":[0,1,50,120,198]}`
	if a, b := mono.must("/v1/batch", batch), front.must("/v1/batch", batch); !bytes.Equal(a, b) {
		t.Errorf("/v1/batch differs:\n%s\n%s", a, b)
	}
	// Both daemon shapes publish the process's metrics through expvar.
	for _, d := range []*daemon{front, s0} {
		if d.json("/debug/vars")["obs"] == nil {
			t.Errorf("%s/debug/vars publishes no obs registry", d.url)
		}
	}

	s1.kill()
	failed := ""
	for u := 0; u <= 40 && failed == ""; u++ {
		path := fmt.Sprintf("/v1/distance?u=%d&v=%d", u, 199-u)
		switch code, body := front.get(path); code {
		case http.StatusOK:
			if want := mono.must(path); !bytes.Equal(body, want) {
				t.Fatalf("%s with shard 1 dead: %s, want %s", path, body, want)
			}
		case http.StatusServiceUnavailable:
			var env map[string]any
			if err := json.Unmarshal(body, &env); err != nil || env["code"] != "shard_unavailable" || env["shard_id"] != 1.0 {
				t.Fatalf("%s with shard 1 dead: %s, want shard_unavailable for shard 1", path, body)
			}
			failed = path
		default:
			t.Fatalf("%s with shard 1 dead: status %d: %s", path, code, body)
		}
	}
	if failed == "" {
		t.Fatal("no query crossed the dead shard")
	}

	serve(t, dir, "-shard-snapshot", "cluster/shard-1.snap", "-addr", strings.TrimPrefix(s1.url, "http://"))
	want := mono.must(failed)
	eventually(t, func() (bool, string) {
		code, body := front.get(failed)
		return code == http.StatusOK && bytes.Equal(body, want), fmt.Sprintf("%s: status %d: %s", failed, code, body)
	})
}
