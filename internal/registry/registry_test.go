package registry

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/apsp"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/qe"
)

// testGraph builds a deterministic multi-block graph distinct per seed.
func testGraph(seed uint64) *graph.Graph {
	cfg := gen.Config{MaxWeight: 9}
	rng := gen.NewRNG(seed)
	return gen.ChainBlocks([]*graph.Graph{
		gen.Theta([]int{2, 3, 4}, cfg, rng),
		gen.Ring(8, cfg, rng),
	}, cfg, rng)
}

// writeSnap builds an oracle over g and writes it as dir/<name>.snap,
// returning the oracle for differential checks.
func writeSnap(t testing.TB, dir, name string, g *graph.Graph) *apsp.Oracle {
	t.Helper()
	o := apsp.NewOracle(g)
	f, err := os.Create(filepath.Join(dir, name+SnapshotExt))
	if err != nil {
		t.Fatalf("create snapshot: %v", err)
	}
	if _, err := o.WriteTo(f); err != nil {
		t.Fatalf("write snapshot: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close snapshot: %v", err)
	}
	return o
}

// answersAll asserts that eng answers every pair of g Float64bits-equal
// to an oracle built afresh over g.
func answersAll(t *testing.T, eng *qe.Engine, g *graph.Graph) {
	t.Helper()
	ref := apsp.NewOracle(g)
	n := int32(g.NumVertices())
	for u := int32(0); u < n; u++ {
		for v := int32(0); v < n; v++ {
			got, err := eng.Query(context.Background(), u, v)
			if err != nil {
				t.Fatalf("d(%d,%d): %v", u, v, err)
			}
			if want := ref.Query(u, v); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("d(%d,%d) = %v, fresh oracle %v", u, v, got, want)
			}
		}
	}
}

func openTest(t *testing.T, dir string, max int) (*Registry, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	r, err := Open(Config{Dir: dir, MaxGraphs: max, Engine: qe.Config{MaxInflight: 4, QueueDepth: 16}, Reg: reg})
	if err != nil {
		t.Fatalf("open registry: %v", err)
	}
	return r, reg
}

func TestValidName(t *testing.T) {
	for _, ok := range []string{"default", "g1", "road.v2", "A_b-c", strings.Repeat("x", 128), "..a", "a.."} {
		if !ValidName(ok) {
			t.Errorf("ValidName(%q) = false, want true", ok)
		}
	}
	for _, bad := range []string{"", ".", "..", "...", "a/b", "../etc", "a b", "g\x00", strings.Repeat("x", 129), "ü"} {
		if ValidName(bad) {
			t.Errorf("ValidName(%q) = true, want false", bad)
		}
	}
}

// TestHydrateDifferential is the correctness acceptance: two graphs
// served through one registry answer exactly what a direct
// ReadOracle+qe.Engine over the same snapshot answers.
func TestHydrateDifferential(t *testing.T) {
	dir := t.TempDir()
	graphs := map[string]*graph.Graph{"alpha": testGraph(1), "beta": testGraph(2)}
	for name, g := range graphs {
		writeSnap(t, dir, name, g)
	}
	r, _ := openTest(t, dir, 4)
	ctx := context.Background()
	for name, g := range graphs {
		e, err := r.Acquire(ctx, name)
		if err != nil {
			t.Fatalf("acquire %s: %v", name, err)
		}
		// The reference: an oracle decoded straight from the same file,
		// served through a private engine.
		f, err := os.Open(filepath.Join(dir, name+SnapshotExt))
		if err != nil {
			t.Fatal(err)
		}
		direct, err := apsp.ReadOracle(f)
		f.Close()
		if err != nil {
			t.Fatalf("direct ReadOracle: %v", err)
		}
		ref := qe.New(direct, qe.Config{Reg: obs.NewRegistry()})
		n := g.NumVertices()
		for u := 0; u < n; u++ {
			for v := 0; v < n; v += 2 {
				got, err := e.Engine().Query(ctx, int32(u), int32(v))
				if err != nil {
					t.Fatalf("%s query(%d,%d): %v", name, u, v, err)
				}
				want, err := ref.Query(ctx, int32(u), int32(v))
				if err != nil {
					t.Fatalf("ref query: %v", err)
				}
				if got != want {
					t.Fatalf("%s d(%d,%d) = %v via registry, %v direct", name, u, v, got, want)
				}
			}
		}
		e.Release()
	}
}

func TestAcquireUnknown(t *testing.T) {
	r, reg := openTest(t, t.TempDir(), 4)
	_, err := r.Acquire(context.Background(), "nope")
	if !errors.Is(err, ErrUnknownGraph) {
		t.Fatalf("unknown graph error = %v, want ErrUnknownGraph", err)
	}
	if got := reg.Counter("registry.misses").Value(); got != 1 {
		t.Fatalf("registry.misses = %d, want 1", got)
	}
	// Traversal-shaped names are rejected before touching the filesystem.
	for _, bad := range []string{"../etc", "..", "a/b"} {
		if _, err := r.Acquire(context.Background(), bad); !errors.Is(err, ErrUnknownGraph) {
			t.Fatalf("Acquire(%q) = %v, want ErrUnknownGraph", bad, err)
		}
	}
}

// TestSingleflightHydration is the satellite acceptance: K racing first
// queries to a cold graph run exactly one snapshot load.
func TestSingleflightHydration(t *testing.T) {
	const K = 16
	dir := t.TempDir()
	writeSnap(t, dir, "g", testGraph(3))
	r, reg := openTest(t, dir, 4)

	started := make(chan struct{})
	gate := make(chan struct{})
	r.hydrateHook = func(string) { close(started); <-gate }

	var wg sync.WaitGroup
	errs := make(chan error, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, err := r.Acquire(context.Background(), "g")
			if err != nil {
				errs <- err
				return
			}
			if _, err := e.Engine().Query(context.Background(), 0, 1); err != nil {
				errs <- err
			}
			e.Release()
		}()
	}
	<-started                         // the one hydrator is inside the load
	time.Sleep(10 * time.Millisecond) // let the rest reach the wait
	close(gate)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("racer failed: %v", err)
	}
	if got := reg.Counter("registry.hydrations").Value(); got != 1 {
		t.Fatalf("registry.hydrations = %d, want 1", got)
	}
	if got := reg.Counter("snapshot.loads").Value(); got != 1 {
		t.Fatalf("snapshot.loads ticked %d times for %d racers, want 1", got, K)
	}
	// All racers were misses on the resident table except the coalesced
	// ones — at minimum the first; the counter only counts cold lookups.
	if got := reg.Counter("registry.misses").Value(); got != 1 {
		t.Fatalf("registry.misses = %d, want 1 (coalesced waiters are not misses)", got)
	}
}

// TestLRUEvictionDropsIdleEntry: evicting an unheld graph drops it from
// the table and releases nothing — an engine kept past its Release still
// answers exactly — and the next Acquire hydrates afresh.
func TestLRUEvictionDropsIdleEntry(t *testing.T) {
	dir := t.TempDir()
	ga := testGraph(4)
	writeSnap(t, dir, "a", ga)
	writeSnap(t, dir, "b", testGraph(5))
	r, reg := openTest(t, dir, 1)
	ctx := context.Background()

	ea, err := r.Acquire(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	engA := ea.Engine()
	ea.Release()

	eb, err := r.Acquire(ctx, "b") // over capacity: evicts idle a
	if err != nil {
		t.Fatal(err)
	}
	defer eb.Release()
	if got := reg.Counter("registry.evictions").Value(); got != 1 {
		t.Fatalf("registry.evictions = %d, want 1", got)
	}
	if got := reg.Gauge("registry.graphs").Value(); got != 1 {
		t.Fatalf("registry.graphs = %d, want 1", got)
	}
	answersAll(t, engA, ga)
	// Re-acquiring a rehydrates from the file.
	ea2, err := r.Acquire(ctx, "a")
	if err != nil {
		t.Fatalf("re-acquire after eviction: %v", err)
	}
	if _, err := ea2.Engine().Query(ctx, 0, 1); err != nil {
		t.Fatalf("rehydrated query: %v", err)
	}
	ea2.Release()
	if got := reg.Counter("registry.hydrations").Value(); got != 3 {
		t.Fatalf("registry.hydrations = %d, want 3", got)
	}
}

// TestEvictionDrainsBusyEntry: evicting a graph with a holder drops it
// from the table, and the holder's engine keeps answering exactly, before
// its Release and after.
func TestEvictionDrainsBusyEntry(t *testing.T) {
	dir := t.TempDir()
	ga := testGraph(6)
	writeSnap(t, dir, "a", ga)
	writeSnap(t, dir, "b", testGraph(7))
	r, reg := openTest(t, dir, 1)
	ctx := context.Background()

	ea, err := r.Acquire(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	// a is busy (ref held) when b forces an eviction.
	eb, err := r.Acquire(ctx, "b")
	if err != nil {
		t.Fatal(err)
	}
	defer eb.Release()
	if got := reg.Counter("registry.evictions").Value(); got != 1 {
		t.Fatalf("registry.evictions = %d, want 1", got)
	}
	// The busy holder still gets answers — never cut off mid-request.
	if _, err := ea.Engine().Query(ctx, 0, 1); err != nil {
		t.Fatalf("query on evicted-but-held entry: %v", err)
	}
	eng := ea.Engine()
	ea.Release()
	answersAll(t, eng, ga)
}

// TestEvictWhileHydrating orders an eviction inside a hydration: the
// evicted entry finishes hydrating and serves its waiters, before and
// after the final release.
func TestEvictWhileHydrating(t *testing.T) {
	dir := t.TempDir()
	gSlow := testGraph(8)
	writeSnap(t, dir, "slow", gSlow)
	writeSnap(t, dir, "fast", testGraph(9))
	r, reg := openTest(t, dir, 1)
	ctx := context.Background()

	started := make(chan struct{})
	gate := make(chan struct{})
	r.hydrateHook = func(name string) {
		if name == "slow" {
			close(started)
			<-gate
		}
	}

	slowDone := make(chan *Entry, 1)
	go func() {
		e, err := r.Acquire(ctx, "slow")
		if err != nil {
			t.Errorf("slow acquire: %v", err)
			slowDone <- nil
			return
		}
		slowDone <- e
	}()
	<-started // slow is resident-as-hydrating and blocked

	ef, err := r.Acquire(ctx, "fast") // evicts the hydrating slow entry
	if err != nil {
		t.Fatal(err)
	}
	defer ef.Release()
	if got := reg.Counter("registry.evictions").Value(); got != 1 {
		t.Fatalf("registry.evictions = %d, want 1", got)
	}

	close(gate) // let slow's hydration finish
	es := <-slowDone
	if es == nil {
		t.FailNow()
	}
	// The acquirer that raced the eviction still serves.
	if _, err := es.Engine().Query(ctx, 0, 1); err != nil {
		t.Fatalf("query on evicted-while-hydrating entry: %v", err)
	}
	if _, ok := r.Info("slow"); !ok {
		t.Fatalf("slow should still be known (file intact)")
	}
	if info, _ := r.Info("slow"); info.State != "cold" {
		t.Fatalf("slow state = %q after eviction, want cold", info.State)
	}
	eng := es.Engine()
	es.Release()
	answersAll(t, eng, gSlow)
}

func TestRegisterRemove(t *testing.T) {
	dir := t.TempDir()
	r, _ := openTest(t, dir, 4)
	ctx := context.Background()

	var buf bytes.Buffer
	gOld := testGraph(10)
	if _, err := apsp.NewOracle(gOld).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	nv, ne, err := r.Register("up", &buf)
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	if nv != gOld.NumVertices() || ne != gOld.NumEdges() {
		t.Fatalf("register reported %d/%d, want %d/%d", nv, ne, gOld.NumVertices(), gOld.NumEdges())
	}
	e, err := r.Acquire(ctx, "up")
	if err != nil {
		t.Fatalf("acquire registered graph: %v", err)
	}
	oldEng := e.Engine()
	e.Release()

	// Replacing the snapshot drops the resident entry; the next acquire
	// serves the new graph, and an engine kept from the old one still
	// answers the old graph.
	gNew := gen.Ring(12, gen.Config{MaxWeight: 1}, gen.NewRNG(1))
	buf.Reset()
	if _, err := apsp.NewOracle(gNew).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Register("up", &buf); err != nil {
		t.Fatalf("replace: %v", err)
	}
	answersAll(t, oldEng, gOld)
	e2, err := r.Acquire(ctx, "up")
	if err != nil {
		t.Fatal(err)
	}
	if got := e2.Graph().NumVertices(); got != 12 {
		t.Fatalf("post-replace vertices = %d, want 12", got)
	}
	e2.Release()

	// A snapshot that does not decode never enters the directory.
	if _, _, err := r.Register("junk", strings.NewReader("not a snapshot")); err == nil {
		t.Fatalf("garbage snapshot accepted")
	}
	if _, err := os.Stat(filepath.Join(dir, "junk"+SnapshotExt)); !os.IsNotExist(err) {
		t.Fatalf("garbage snapshot landed in the directory")
	}
	if _, _, err := r.Register("../evil", &buf); !errors.Is(err, ErrBadName) {
		t.Fatalf("traversal name error = %v, want ErrBadName", err)
	}

	if err := r.Remove("up"); err != nil {
		t.Fatalf("remove: %v", err)
	}
	if _, err := r.Acquire(ctx, "up"); !errors.Is(err, ErrUnknownGraph) {
		t.Fatalf("acquire after remove = %v, want ErrUnknownGraph", err)
	}
	if err := r.Remove("up"); !errors.Is(err, ErrUnknownGraph) {
		t.Fatalf("double remove = %v, want ErrUnknownGraph", err)
	}

	// Static-only registries are read-only.
	r2, _ := openTest(t, "", 4)
	if _, _, err := r2.Register("x", &buf); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("register without dir = %v, want ErrReadOnly", err)
	}
	if err := r2.Remove("x"); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("remove without dir = %v, want ErrReadOnly", err)
	}
}

func TestCorruptSnapshotHydration(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "bad"+SnapshotExt), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	r, reg := openTest(t, dir, 4)
	if _, err := r.Acquire(context.Background(), "bad"); err == nil {
		t.Fatalf("corrupt snapshot hydrated")
	}
	// The failed entry is not resident: the registry stays healthy and a
	// later acquire retries the file.
	if got := reg.Gauge("registry.graphs").Value(); got != 0 {
		t.Fatalf("registry.graphs = %d after failed hydration, want 0", got)
	}
	if _, err := r.Acquire(context.Background(), "bad"); err == nil {
		t.Fatalf("second acquire should retry and fail again")
	}
	if got := reg.Counter("registry.hydrations").Value(); got != 0 {
		t.Fatalf("registry.hydrations = %d, want 0", got)
	}
}

func TestListInfoAndStates(t *testing.T) {
	dir := t.TempDir()
	writeSnap(t, dir, "a", testGraph(11))
	writeSnap(t, dir, "b", testGraph(12))
	r, _ := openTest(t, dir, 4)

	list := r.List()
	if len(list) != 2 || list[0].Name != "a" || list[1].Name != "b" {
		t.Fatalf("list = %+v", list)
	}
	for _, info := range list {
		if info.State != "cold" {
			t.Fatalf("pre-hydration state = %q, want cold", info.State)
		}
	}
	e, err := r.Acquire(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	info, ok := r.Info("a")
	if !ok || info.State != "live" || info.Refs != 1 || info.Vertices == 0 {
		t.Fatalf("live info = %+v (known=%v)", info, ok)
	}
	e.Release()
	if info, _ = r.Info("a"); info.Refs != 0 {
		t.Fatalf("refs after release = %d, want 0", info.Refs)
	}
	if _, ok := r.Info("zzz"); ok {
		t.Fatalf("unknown name reported as known")
	}
}

func TestStatsViewPrefix(t *testing.T) {
	dir := t.TempDir()
	writeSnap(t, dir, "a", testGraph(13))
	r, reg := openTest(t, dir, 4)
	e, err := r.Acquire(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Engine().Query(context.Background(), 0, 1); err != nil {
		t.Fatal(err)
	}
	e.Release()
	// The engine's metrics live under the graph prefix at the root…
	if got := reg.Counter("g.a.qe.pairs").Value(); got != 1 {
		t.Fatalf("g.a.qe.pairs = %d, want 1", got)
	}
	// …and the per-graph stats view renders them unprefixed.
	if s := r.StatsView("a").String(); !strings.Contains(s, `"qe.pairs":1`) {
		t.Fatalf("stats view missing qe.pairs: %s", s)
	}
}

// TestCloseRegistry: Close refuses new Acquires and releases nothing, so
// an engine handed out before it still answers exactly.
func TestCloseRegistry(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(14)
	writeSnap(t, dir, "a", g)
	r, _ := openTest(t, dir, 4)
	ctx := context.Background()
	e, err := r.Acquire(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	eng := e.Engine()
	e.Release()
	if err := r.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := r.Acquire(ctx, "a"); !errors.Is(err, ErrClosed) {
		t.Fatalf("acquire after close = %v, want ErrClosed", err)
	}
	answersAll(t, eng, g)
	if err := r.Close(ctx); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestAddStaticPinned(t *testing.T) {
	dir := t.TempDir()
	writeSnap(t, dir, "other", testGraph(15))
	r, reg := openTest(t, dir, 1)
	g := testGraph(16)
	o := apsp.NewOracle(g)
	eng := qe.New(o, qe.Config{Reg: reg})
	r.AddStatic(DefaultGraph, o, eng)

	ctx := context.Background()
	e, err := r.Acquire(ctx, DefaultGraph)
	if err != nil {
		t.Fatalf("acquire static: %v", err)
	}
	if e.Engine() != eng || e.Oracle() != o {
		t.Fatalf("static entry does not carry the registered pair")
	}
	e.Release()

	// Hydrating another graph at capacity 1 must not evict the pinned
	// default: pinned entries never enter the LRU.
	eo, err := r.Acquire(ctx, "other")
	if err != nil {
		t.Fatal(err)
	}
	eo.Release()
	if got := reg.Counter("registry.evictions").Value(); got != 0 {
		t.Fatalf("pinned entry evicted: evictions = %d", got)
	}
	if err := r.Remove(DefaultGraph); err == nil {
		t.Fatalf("removing a pinned entry succeeded")
	}
	e2, err := r.Acquire(ctx, DefaultGraph)
	if err != nil {
		t.Fatalf("re-acquire static after eviction pressure: %v", err)
	}
	if _, err := e2.Engine().Query(ctx, 0, 1); err != nil {
		t.Fatalf("static query: %v", err)
	}
	e2.Release()
}

func TestAwaitContextCancel(t *testing.T) {
	dir := t.TempDir()
	writeSnap(t, dir, "slow", testGraph(17))
	r, _ := openTest(t, dir, 4)
	started := make(chan struct{})
	gate := make(chan struct{})
	r.hydrateHook = func(string) { close(started); <-gate }

	go r.Acquire(context.Background(), "slow") //nolint:errcheck — released below
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := r.Acquire(ctx, "slow"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled waiter error = %v, want DeadlineExceeded", err)
	}
	close(gate)
	// The entry still hydrates for the first acquirer; give it a moment
	// and confirm the registry is consistent.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if info, ok := r.Info("slow"); ok && info.State == "live" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slow never became live after waiter cancellation")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestOutOfBandSnapshotPickup(t *testing.T) {
	dir := t.TempDir()
	r, _ := openTest(t, dir, 4)
	if _, err := r.Acquire(context.Background(), "late"); !errors.Is(err, ErrUnknownGraph) {
		t.Fatalf("pre-drop acquire = %v, want ErrUnknownGraph", err)
	}
	writeSnap(t, dir, "late", testGraph(18))
	e, err := r.Acquire(context.Background(), "late")
	if err != nil {
		t.Fatalf("post-drop acquire: %v", err)
	}
	e.Release()
}

func TestOpenScansDir(t *testing.T) {
	dir := t.TempDir()
	writeSnap(t, dir, "good", testGraph(19))
	// Ignored: wrong extension, invalid name, subdirectory.
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "sub.snap"), 0o755); err != nil {
		t.Fatal(err)
	}
	r, _ := openTest(t, dir, 4)
	list := r.List()
	if len(list) != 1 || list[0].Name != "good" {
		t.Fatalf("scan found %+v, want only good", list)
	}
	if _, err := Open(Config{Dir: filepath.Join(dir, "absent")}); err == nil {
		t.Fatalf("opening a missing directory succeeded")
	}
}

func TestSwapAppliesDeltas(t *testing.T) {
	dir := t.TempDir()
	g := gen.Ring(16, gen.Config{MaxWeight: 1}, gen.NewRNG(1))
	writeSnap(t, dir, "ring", g)
	r, _ := openTest(t, dir, 4)
	ctx := context.Background()
	e, err := r.Acquire(ctx, "ring")
	if err != nil {
		t.Fatal(err)
	}
	defer e.Release()
	if d, _ := e.Engine().Query(ctx, 0, 8); d != 8 {
		t.Fatalf("pre-delta d(0,8) = %v, want 8", d)
	}
	next, _, err := e.Apply(ctx, []apsp.Delta{{Kind: apsp.DeltaInsert, U: 0, V: 8, W: 1}}, nil)
	if err != nil {
		t.Fatalf("apply delta: %v", err)
	}
	if d, _ := e.Engine().Query(ctx, 0, 8); d != 1 {
		t.Fatalf("post-delta d(0,8) = %v, want 1", d)
	}
	if e.Oracle() != next || e.Graph() != next.G {
		t.Fatalf("Apply did not install the new oracle")
	}
	if info, _ := r.Info("ring"); info.Edges != next.G.NumEdges() {
		t.Fatalf("Info edges = %d, want %d", info.Edges, next.G.NumEdges())
	}
}

// TestApplySaveFailureKeepsEntry: a save that fails after the script
// applied leaves the entry serving the pre-script oracle.
func TestApplySaveFailureKeepsEntry(t *testing.T) {
	dir := t.TempDir()
	writeSnap(t, dir, "ring", gen.Ring(16, gen.Config{MaxWeight: 1}, gen.NewRNG(1)))
	r, _ := openTest(t, dir, 4)
	ctx := context.Background()
	e, err := r.Acquire(ctx, "ring")
	if err != nil {
		t.Fatal(err)
	}
	defer e.Release()
	before := e.Oracle()
	boom := errors.New("disk full")
	_, _, err = e.Apply(ctx, []apsp.Delta{{Kind: apsp.DeltaInsert, U: 0, V: 8, W: 1}},
		func(*apsp.Oracle) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the save's error", err)
	}
	if e.Oracle() != before {
		t.Fatal("a failed save swapped the oracle in")
	}
	if d, _ := e.Engine().Query(ctx, 0, 8); d != 8 {
		t.Fatalf("d(0,8) = %v after a failed save, want the pre-script 8", d)
	}
}

// TestApplyIsPerGraph holds graph a's applier inside its save and checks
// that a delta on b still completes, while a second script on a waits
// for the first and then applies on top of it.
func TestApplyIsPerGraph(t *testing.T) {
	dir := t.TempDir()
	ring := gen.Ring(16, gen.Config{MaxWeight: 1}, gen.NewRNG(1))
	writeSnap(t, dir, "a", ring)
	writeSnap(t, dir, "b", ring)
	r, _ := openTest(t, dir, 4)
	ctx := context.Background()
	a, err := r.Acquire(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Release()
	b, err := r.Acquire(ctx, "b")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Release()

	inSave, release := make(chan struct{}), make(chan struct{})
	first := make(chan error, 1)
	go func() {
		_, _, err := a.Apply(ctx, []apsp.Delta{{Kind: apsp.DeltaInsert, U: 0, V: 8, W: 1}},
			func(*apsp.Oracle) error { close(inSave); <-release; return nil })
		first <- err
	}()
	<-inSave
	second := make(chan error, 1)
	go func() {
		_, _, err := a.Apply(ctx, []apsp.Delta{{Kind: apsp.DeltaWeight, Edge: 16, W: 3}}, nil)
		second <- err
	}()

	done := make(chan error, 1)
	go func() {
		_, _, err := b.Apply(ctx, []apsp.Delta{{Kind: apsp.DeltaInsert, U: 0, V: 4, W: 1}}, nil)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("delta on b: %v", err)
		}
	case <-time.After(10 * time.Second):
		close(release)
		t.Fatal("a delta on b waited for a's applier")
	}
	if d, _ := b.Engine().Query(ctx, 0, 4); d != 1 {
		t.Fatalf("b: d(0,4) = %v, want 1", d)
	}
	select {
	case err := <-second:
		t.Fatalf("a's second script ran while the first held the applier (err %v)", err)
	default:
	}

	close(release)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	// Edge 16 is the chord the first script inserted: the second script
	// applies to the post-first oracle, never beside it.
	if err := <-second; err != nil {
		t.Fatal(err)
	}
	if d, _ := a.Engine().Query(ctx, 0, 8); d != 3 {
		t.Fatalf("a: d(0,8) = %v, want the reweighted chord's 3", d)
	}
}
