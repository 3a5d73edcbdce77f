package jobs_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apsp"
	"repro/internal/bc"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/qe"
)

// testGraph is a deterministic weighted multi-block graph.
func testGraph(n int, seed uint64) *graph.Graph {
	return gen.PlanarEars(n, 3, gen.Config{MaxWeight: 9}, gen.NewRNG(seed))
}

// slowSource serves oracle rows with an optional per-row delay, so tests
// can hold a job in flight long enough to cancel or kill it.
type slowSource struct {
	o     *apsp.Oracle
	delay time.Duration
	rows  atomic.Int64
}

func (s *slowSource) NumVertices() int { return s.o.NumVertices() }

func (s *slowSource) Row(src int32, out []graph.Weight) int64 {
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	s.rows.Add(1)
	return s.o.Row(src, out)
}

// fixture is one in-memory tenant: a graph, an engine over its oracle,
// and a release counter so tests can assert the job ref drained.
type fixture struct {
	g        *graph.Graph
	eng      *qe.Engine
	src      *slowSource
	acquired atomic.Int64
	released atomic.Int64
}

type fixtureRef struct{ f *fixture }

func (r fixtureRef) Graph() *graph.Graph { return r.f.g }
func (r fixtureRef) Engine() *qe.Engine  { return r.f.eng }
func (r fixtureRef) Release()            { r.f.released.Add(1) }

func newFixture(t testing.TB, n int, seed uint64, delay time.Duration) *fixture {
	t.Helper()
	g := testGraph(n, seed)
	src := &slowSource{o: apsp.NewOracle(g), delay: delay}
	eng := qe.New(src, qe.Config{MaxInflight: 4, QueueDepth: 8, Reg: obs.NewRegistry()})
	return &fixture{g: g, eng: eng, src: src}
}

// host serves a fixed set of fixtures by name.
func host(fs map[string]*fixture) jobs.Host {
	return func(ctx context.Context, name string) (jobs.GraphRef, error) {
		f, ok := fs[name]
		if !ok {
			return nil, fmt.Errorf("no graph %q", name)
		}
		f.acquired.Add(1)
		return fixtureRef{f}, nil
	}
}

func openManager(t testing.TB, dir string, fs map[string]*fixture, chunk int) (*jobs.Manager, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	known := func(name string) bool { _, ok := fs[name]; return ok }
	m, err := jobs.Open(jobs.Config{
		Dir: dir, Host: host(fs), Known: known,
		Concurrency: 2, Workers: 2, ChunkSize: chunk, Reg: reg,
	})
	if err != nil {
		t.Fatalf("jobs.Open: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		m.Close(ctx)
	})
	return m, reg
}

// waitState polls until the job reaches a state satisfying ok.
func waitState(t testing.TB, m *jobs.Manager, id string, ok func(jobs.Status) bool) jobs.Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	prev := -1
	for {
		st, err := m.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if st.Done < prev {
			t.Fatalf("job %s progress went back from %d to %d", id, prev, st.Done)
		}
		prev = st.Done
		if ok(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck: %+v", id, st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func terminalState(st jobs.Status) bool { return jobs.Terminal(st.State) }

// row is the union shape of both kinds' NDJSON rows.
type row struct {
	I      int64     `json:"i"`
	Source int32     `json:"source"`
	Dist   []float64 `json:"dist"`
	V      int32     `json:"v"`
	Score  float64   `json:"score"`
}

func parseRows(t testing.TB, b []byte) []row {
	t.Helper()
	var out []row
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r row
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// streamAll collects the job's full results.
func streamAll(t testing.TB, m *jobs.Manager, id string, from int64) ([]byte, int64) {
	t.Helper()
	var buf bytes.Buffer
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	off, err := m.Stream(ctx, id, from, &buf)
	if err != nil {
		t.Fatalf("Stream(%s, %d): %v", id, from, err)
	}
	return buf.Bytes(), off
}

// TestBatchMatrixLifecycle: submit → progress → complete → stream, with
// reconnect-from-offset and boundary validation. The distances in the
// stream must equal what the engine answers point-wise.
func TestBatchMatrixLifecycle(t *testing.T) {
	f := newFixture(t, 36, 1, 0)
	fs := map[string]*fixture{"g1": f}
	m, reg := openManager(t, t.TempDir(), fs, 5)

	st, err := m.Submit(jobs.Spec{Kind: jobs.KindBatchMatrix, Graph: "g1"})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != jobs.StatePending && st.State != jobs.StateRunning {
		t.Fatalf("fresh job state %q", st.State)
	}
	fin := waitState(t, m, st.ID, terminalState)
	if fin.State != jobs.StateCompleted {
		t.Fatalf("job ended %q (err %q)", fin.State, fin.Error)
	}
	n := f.g.NumVertices()
	if fin.Done != n || fin.Total != n || fin.Rows != int64(n) || fin.Progress != 1 {
		t.Fatalf("completed status %+v, want %d/%d done", fin, n, n)
	}

	full, off := streamAll(t, m, st.ID, 0)
	if off != fin.ResultsBytes || int64(len(full)) != off {
		t.Fatalf("streamed %d bytes to offset %d, status says %d", len(full), off, fin.ResultsBytes)
	}
	rows := parseRows(t, full)
	if len(rows) != n {
		t.Fatalf("%d rows, want %d", len(rows), n)
	}
	for i, r := range rows {
		if r.I != int64(i) || int(r.Source) != i || len(r.Dist) != n {
			t.Fatalf("row %d malformed: %+v", i, r)
		}
	}
	// Spot-check distances against the engine.
	for _, v := range []int32{0, int32(n / 2), int32(n - 1)} {
		want, err := f.eng.Query(context.Background(), 3, v)
		if err != nil {
			t.Fatal(err)
		}
		if got := rows[3].Dist[v]; got != float64(want) {
			t.Fatalf("row 3 dist[%d] = %v, engine says %v", v, got, want)
		}
	}

	// Reconnect mid-stream: resume from the second line's start.
	cut := int64(bytes.IndexByte(full, '\n') + 1)
	tail, _ := streamAll(t, m, st.ID, cut)
	if !bytes.Equal(append(full[:cut:cut], tail...), full) {
		t.Fatalf("resume from %d did not stitch the stream", cut)
	}
	// Mid-line and past-the-end offsets are rejected as bad cursors.
	for _, bad := range []int64{cut + 1, off + 99, -1} {
		if _, err := m.Stream(context.Background(), st.ID, bad, io.Discard); !errors.Is(err, jobs.ErrBadOffset) {
			t.Fatalf("offset %d: err = %v, want ErrBadOffset", bad, err)
		}
	}

	if reg.Counter("jobs.submitted").Value() != 1 || reg.Counter("jobs.completed").Value() != 1 {
		t.Fatalf("counters: %s", reg.String())
	}
	if reg.Phases("jobs.phase.batch_matrix").Total() <= 0 {
		t.Fatalf("no jobs.phase.batch_matrix timers: %s", reg.String())
	}
}

// TestStreamFollowsLiveJob races a streaming reader against the runner:
// the reader attaches before the job finishes and must still deliver the
// complete stream.
func TestStreamFollowsLiveJob(t *testing.T) {
	f := newFixture(t, 30, 2, time.Millisecond)
	m, _ := openManager(t, t.TempDir(), map[string]*fixture{"g1": f}, 3)
	st, err := m.Submit(jobs.Spec{Kind: jobs.KindBatchMatrix, Graph: "g1"})
	if err != nil {
		t.Fatal(err)
	}
	full, _ := streamAll(t, m, st.ID, 0) // attaches while running, follows to the end
	if got, want := len(parseRows(t, full)), f.g.NumVertices(); got != want {
		t.Fatalf("followed stream has %d rows, want %d", got, want)
	}
}

// TestCancelMidFlight cancels a slow job between chunks: terminal state
// cancelled, partial durable rows, and a live stream that ends cleanly.
func TestCancelMidFlight(t *testing.T) {
	f := newFixture(t, 40, 3, 2*time.Millisecond)
	m, reg := openManager(t, t.TempDir(), map[string]*fixture{"g1": f}, 2)
	st, err := m.Submit(jobs.Spec{Kind: jobs.KindBatchMatrix, Graph: "g1"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, st.ID, func(s jobs.Status) bool { return s.Rows > 0 })
	if _, err := m.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	fin := waitState(t, m, st.ID, terminalState)
	if fin.State != jobs.StateCancelled {
		t.Fatalf("state %q after cancel", fin.State)
	}
	if fin.Rows == 0 || fin.Rows >= int64(f.g.NumVertices()) {
		t.Fatalf("cancelled with %d durable rows of %d", fin.Rows, f.g.NumVertices())
	}
	// The durable prefix still streams, and ends rather than hanging.
	part, _ := streamAll(t, m, st.ID, 0)
	if int64(len(parseRows(t, part))) != fin.Rows {
		t.Fatalf("stream has %d rows, status says %d", len(parseRows(t, part)), fin.Rows)
	}
	// Cancel is idempotent on a terminal job.
	again, err := m.Cancel(st.ID)
	if err != nil || again.State != jobs.StateCancelled {
		t.Fatalf("re-cancel: %+v, %v", again, err)
	}
	if reg.Counter("jobs.cancelled").Value() != 1 {
		t.Fatalf("jobs.cancelled = %d", reg.Counter("jobs.cancelled").Value())
	}
	// The runner released its graph ref.
	if f.acquired.Load() != f.released.Load() {
		t.Fatalf("refs: %d acquired, %d released", f.acquired.Load(), f.released.Load())
	}
}

// TestRestartResumeBatch kills the manager mid-job (daemon death) and
// reopens over the same directory: the job resumes from its checkpoint
// and the final stream holds every row exactly once.
func TestRestartResumeBatch(t *testing.T) {
	dir := t.TempDir()
	f := newFixture(t, 40, 4, time.Millisecond)
	fs := map[string]*fixture{"g1": f}
	m1, _ := openManager(t, dir, fs, 2)
	st, err := m1.Submit(jobs.Spec{Kind: jobs.KindBatchMatrix, Graph: "g1"})
	if err != nil {
		t.Fatal(err)
	}
	mid := waitState(t, m1, st.ID, func(s jobs.Status) bool { return s.Rows >= 4 })
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	m1.Close(ctx)
	cancel()
	if mid.Rows >= int64(f.g.NumVertices()) {
		t.Skip("job finished before the kill; nothing to resume")
	}

	m2, reg2 := openManager(t, dir, fs, 2)
	after, err := m2.Get(st.ID)
	if err != nil {
		t.Fatalf("job lost across restart: %v", err)
	}
	if jobs.Terminal(after.State) {
		t.Fatalf("restarted job already terminal: %+v", after)
	}
	if reg2.Counter("jobs.resumed").Value() != 1 {
		t.Fatalf("jobs.resumed = %d", reg2.Counter("jobs.resumed").Value())
	}
	fin := waitState(t, m2, st.ID, terminalState)
	if fin.State != jobs.StateCompleted {
		t.Fatalf("resumed job ended %q (err %q)", fin.State, fin.Error)
	}
	rows := parseRows(t, func() []byte { b, _ := streamAll(t, m2, st.ID, 0); return b }())
	n := f.g.NumVertices()
	if len(rows) != n {
		t.Fatalf("resumed stream has %d rows, want %d", len(rows), n)
	}
	seen := make([]bool, n)
	for _, r := range rows {
		if r.I < 0 || r.I >= int64(n) || seen[r.I] {
			t.Fatalf("row index %d duplicated or out of range", r.I)
		}
		seen[r.I] = true
	}
}

// TestRestartResumeBC kills the manager mid-computation of a bc job; the
// resumed run must produce scores matching a one-shot bc.Parallel.
func TestRestartResumeBC(t *testing.T) {
	dir := t.TempDir()
	f := newFixture(t, 120, 5, 0)
	fs := map[string]*fixture{"g1": f}
	m1, _ := openManager(t, dir, fs, 4)
	st, err := m1.Submit(jobs.Spec{Kind: jobs.KindBC, Graph: "g1"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m1, st.ID, func(s jobs.Status) bool { return s.Done >= 8 })
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	m1.Close(ctx)
	cancel()

	m2, _ := openManager(t, dir, fs, 4)
	fin := waitState(t, m2, st.ID, terminalState)
	if fin.State != jobs.StateCompleted {
		t.Fatalf("resumed bc job ended %q (err %q)", fin.State, fin.Error)
	}
	rows := parseRows(t, func() []byte { b, _ := streamAll(t, m2, st.ID, 0); return b }())
	want := bc.Parallel(f.g, 2)
	if len(rows) != len(want.Scores) {
		t.Fatalf("%d score rows, want %d", len(rows), len(want.Scores))
	}
	for _, r := range rows {
		w := want.Scores[r.V]
		if math.Abs(r.Score-w) > 1e-9*(1+math.Abs(w)) {
			t.Fatalf("bc[%d] = %v, want %v", r.V, r.Score, w)
		}
	}
}

// TestSampledBCJob: a sampled bc job reproduces bc.Sampled for the same
// spec (deterministic source list from the persisted seed).
func TestSampledBCJob(t *testing.T) {
	f := newFixture(t, 90, 6, 0)
	m, reg := openManager(t, t.TempDir(), map[string]*fixture{"g1": f}, 8)
	st, err := m.Submit(jobs.Spec{Kind: jobs.KindBC, Graph: "g1", Samples: 20, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitState(t, m, st.ID, terminalState)
	if fin.State != jobs.StateCompleted {
		t.Fatalf("sampled bc ended %q (err %q)", fin.State, fin.Error)
	}
	if fin.Total != 20 {
		t.Fatalf("total = %d, want 20 sampled sources", fin.Total)
	}
	rows := parseRows(t, func() []byte { b, _ := streamAll(t, m, st.ID, 0); return b }())
	want := bc.Sampled(f.g, 20, 9, 2)
	for _, r := range rows {
		w := want.Scores[r.V]
		if math.Abs(r.Score-w) > 1e-9*(1+math.Abs(w)) {
			t.Fatalf("sampled bc[%d] = %v, want %v", r.V, r.Score, w)
		}
	}
	if reg.Phases("jobs.phase.bc").Total() <= 0 {
		t.Fatalf("no jobs.phase.bc timers: %s", reg.String())
	}
}

// TestFairScheduling: with one run slot, queued backlogs from two tenants
// dispatch round-robin per graph, not FIFO across the whole queue.
func TestFairScheduling(t *testing.T) {
	fa := newFixture(t, 12, 7, 0)
	fb := newFixture(t, 12, 8, 0)
	fs := map[string]*fixture{"a": fa, "b": fb}
	gate := make(chan struct{})
	var mu sync.Mutex
	var order []string
	h := func(ctx context.Context, name string) (jobs.GraphRef, error) {
		<-gate // hold the first job so the others queue up behind it
		mu.Lock()
		order = append(order, name)
		mu.Unlock()
		return fixtureRef{fs[name]}, nil
	}
	m, err := jobs.Open(jobs.Config{
		Dir: t.TempDir(), Host: h, Concurrency: 1, Workers: 1, ChunkSize: 4, Reg: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())

	// The first "a" job dispatches immediately and blocks on the gate;
	// behind it queue a:[a2,a3] and b:[b1,b2]. FIFO would drain all of
	// a's backlog first; per-graph round-robin alternates.
	var ids []string
	for _, g := range []string{"a", "a", "a", "b", "b"} {
		st, err := m.Submit(jobs.Spec{Kind: jobs.KindBatchMatrix, Graph: g, Sources: []int32{0, 1}, Targets: []int32{0}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	close(gate)
	for _, id := range ids {
		if st := waitState(t, m, id, terminalState); st.State != jobs.StateCompleted {
			t.Fatalf("job %s ended %q (%s)", id, st.State, st.Error)
		}
	}
	mu.Lock()
	got := fmt.Sprint(order)
	mu.Unlock()
	if got != "[a a b a b]" {
		t.Fatalf("dispatch order %s, want [a a b a b] (round-robin over graphs)", got)
	}
}

// TestSubmitValidationAndListing covers spec rejection and the id-sorted
// listing the daemon pages.
func TestSubmitValidationAndListing(t *testing.T) {
	f := newFixture(t, 10, 9, 0)
	m, _ := openManager(t, t.TempDir(), map[string]*fixture{"g1": f}, 4)

	for _, bad := range []jobs.Spec{
		{Kind: "nope", Graph: "g1"},
		{Kind: jobs.KindBC, Graph: ""},
		{Kind: jobs.KindBC, Graph: "missing"},
		{Kind: jobs.KindBC, Graph: "g1", Samples: -1},
		{Kind: jobs.KindBC, Graph: "g1", Sources: []int32{1}},
	} {
		if _, err := m.Submit(bad); !errors.Is(err, jobs.ErrBadSpec) {
			t.Fatalf("Submit(%+v): err = %v, want ErrBadSpec", bad, err)
		}
	}
	if _, err := m.Get("j0000000404"); !errors.Is(err, jobs.ErrUnknownJob) {
		t.Fatalf("Get unknown: %v", err)
	}
	if _, err := m.Cancel("j0000000404"); !errors.Is(err, jobs.ErrUnknownJob) {
		t.Fatalf("Cancel unknown: %v", err)
	}

	var ids []string
	for i := 0; i < 5; i++ {
		st, err := m.Submit(jobs.Spec{Kind: jobs.KindBatchMatrix, Graph: "g1", Sources: []int32{0}, Targets: []int32{1}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	var got []string
	for _, it := range m.List() {
		got = append(got, it.ID)
	}
	if fmt.Sprint(got) != fmt.Sprint(ids) {
		t.Fatalf("listed ids %v, want %v", got, ids)
	}
}

// TestJobFilesOnDisk: the checkpoint container and results stream land in
// the state directory under the documented names.
func TestJobFilesOnDisk(t *testing.T) {
	dir := t.TempDir()
	f := newFixture(t, 12, 10, 0)
	m, _ := openManager(t, dir, map[string]*fixture{"g1": f}, 4)
	st, err := m.Submit(jobs.Spec{Kind: jobs.KindBatchMatrix, Graph: "g1"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, st.ID, terminalState)
	for _, name := range []string{st.ID + ".job", st.ID + ".ndjson"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("missing %s: %v", name, err)
		}
	}
}
