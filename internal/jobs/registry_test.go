package jobs_test

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/apsp"
	"repro/internal/bc"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/qe"
	"repro/internal/registry"
)

// TestEvictionDrainsBehindJob binds jobs to a capacity-1 registry: while
// a job runs on graph "a", hydrating graph "b" evicts "a" from the
// registry table, but the job holds a reference — the entry must drain
// behind the job, which completes with correct results instead of dying
// on a closed engine.
func TestEvictionDrainsBehindJob(t *testing.T) {
	dir := t.TempDir()
	ga := testGraph(260, 21)
	gb := testGraph(20, 22)
	writeSnapFile(t, dir, "a", apsp.NewOracle(ga))
	writeSnapFile(t, dir, "b", apsp.NewOracle(gb))
	rg, err := registry.Open(registry.Config{
		Dir: dir, MaxGraphs: 1,
		Engine: qe.Config{MaxInflight: 4, QueueDepth: 8},
		Reg:    obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rg.Close(context.Background())

	h := func(ctx context.Context, name string) (jobs.GraphRef, error) {
		return rg.Acquire(ctx, name)
	}
	known := func(name string) bool { _, ok := rg.Info(name); return ok }
	m, err := jobs.Open(jobs.Config{
		Dir: t.TempDir(), Host: h, Known: known,
		ChunkSize: 4, Reg: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())

	st, err := m.Submit(jobs.Spec{Kind: jobs.KindBC, Graph: "a"})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the job is actually computing on "a", then evict it by
	// hydrating "b" through the capacity-1 LRU.
	waitState(t, m, st.ID, func(s jobs.Status) bool { return s.Done > 0 })
	eb, err := rg.Acquire(context.Background(), "b")
	if err != nil {
		t.Fatal(err)
	}
	eb.Release()
	if info, _ := rg.Info("a"); info.State == "live" {
		t.Fatalf("graph a still live after capacity-1 eviction: %+v", info)
	}
	mid, err := m.Get(st.ID)
	if err != nil || jobs.Terminal(mid.State) && mid.State != jobs.StateCompleted {
		t.Fatalf("job after eviction: %+v, %v", mid, err)
	}

	fin := waitState(t, m, st.ID, terminalState)
	if fin.State != jobs.StateCompleted {
		t.Fatalf("job on evicted graph ended %q (err %q)", fin.State, fin.Error)
	}
	rows := parseRows(t, func() []byte { b, _ := streamAll(t, m, st.ID, 0); return b }())
	want := bc.Parallel(ga, 2)
	if len(rows) != len(want.Scores) {
		t.Fatalf("%d rows, want %d", len(rows), len(want.Scores))
	}
	for _, r := range rows {
		w := want.Scores[r.V]
		if math.Abs(r.Score-w) > 1e-9*(1+math.Abs(w)) {
			t.Fatalf("bc[%d] = %v, want %v", r.V, r.Score, w)
		}
	}
	// The drained entry re-hydrates on demand.
	ea, err := rg.Acquire(context.Background(), "a")
	if err != nil {
		t.Fatalf("re-acquire after drain: %v", err)
	}
	if _, err := ea.Engine().Query(context.Background(), 0, 1); err != nil {
		t.Fatalf("re-hydrated engine: %v", err)
	}
	ea.Release()
}

func writeSnapFile(t testing.TB, dir, name string, o *apsp.Oracle) {
	t.Helper()
	f, err := os.Create(filepath.Join(dir, name+registry.SnapshotExt))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestHostFailureFailsJob: a job whose graph cannot be resolved at run
// time (removed between submit and dispatch) goes to failed with the
// resolver's error preserved.
func TestHostFailureFailsJob(t *testing.T) {
	h := func(ctx context.Context, name string) (jobs.GraphRef, error) {
		return nil, os.ErrNotExist
	}
	m, err := jobs.Open(jobs.Config{
		Dir: t.TempDir(), Host: h, ChunkSize: 4, Reg: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	st, err := m.Submit(jobs.Spec{Kind: jobs.KindBC, Graph: "ghost"})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitState(t, m, st.ID, terminalState)
	if fin.State != jobs.StateFailed || fin.Error == "" {
		t.Fatalf("unresolvable graph: %+v", fin)
	}
	// The failure is durable: a reopened manager lists it terminal.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	m.Close(ctx)
	cancel()
}
