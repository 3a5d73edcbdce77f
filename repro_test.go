package repro

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/gen"
	"repro/internal/mcb"
	"repro/internal/shard"
	"repro/internal/sssp"
)

// TestFacadeEndToEnd exercises the public surface the README documents:
// build, reduce, query, and basis computation through the facade only.
func TestFacadeEndToEnd(t *testing.T) {
	b := NewGraphBuilder(6)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 2)
	b.AddEdge(2, 3, 3)
	b.AddEdge(3, 0, 4)
	b.AddEdge(0, 4, 1)
	b.AddEdge(4, 2, 1)
	b.AddEdge(3, 5, 9) // pendant
	g := b.Build()

	red, err := ReduceGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	if red.NumRemoved() == 0 {
		t.Fatal("expected degree-2 removals")
	}

	oracle, err := ShortestPaths(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	// d(1,5) by hand: 1-2-3 and 1-0-3 both cost 5, the pendant adds 9.
	if d := oracle.Query(1, 5); d != 14 {
		t.Fatalf("d(1,5) = %v, want 14", d)
	}
	for u := int32(0); u < 6; u++ {
		ref := sssp.BellmanFord(g, u)
		for v := int32(0); v < 6; v++ {
			if d := oracle.Query(u, v); d != ref[v] {
				t.Fatalf("d(%d,%d) = %v, Bellman-Ford %v", u, v, d, ref[v])
			}
		}
	}

	basis, err := MinimumCycleBasis(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(basis.Cycles) != 2 { // m-n+1 = 7-6+1 = 2
		t.Fatalf("basis size %d", len(basis.Cycles))
	}

	opts := MCBOptions{UseEar: false, Platform: mcb.GPU}
	basis2, err := MinimumCycleBasisOptsCtx(context.Background(), g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if basis2.TotalWeight != basis.TotalWeight {
		t.Fatalf("facade options changed the MCB weight: %v vs %v",
			basis2.TotalWeight, basis.TotalWeight)
	}
}

func TestFacadeEarDecompose(t *testing.T) {
	rng := gen.NewRNG(4)
	g := gen.Ring(8, gen.Config{MaxWeight: 3}, rng)
	ears, err := EarDecompose(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(ears) != 1 {
		t.Fatalf("ring should be one ear, got %d", len(ears))
	}
}

// The next four tests came with the one-call wrappers from internal/core
// when repro.go absorbed it.

func TestShortestPathsEndToEnd(t *testing.T) {
	cfg := gen.Config{MaxWeight: 7}
	rng := gen.NewRNG(5)
	g := gen.Subdivide(gen.GNM(25, 45, cfg, rng), 0.5, 2, cfg, rng)
	o, err := ShortestPaths(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	ref := sssp.BellmanFord(g, 0)
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		if o.Query(0, v) != ref[v] {
			t.Fatalf("query mismatch at %d", v)
		}
	}
}

func TestMinimumCycleBasisEndToEnd(t *testing.T) {
	cfg := gen.Config{MaxWeight: 5}
	rng := gen.NewRNG(6)
	g := gen.GNM(20, 32, cfg, rng)
	res, err := MinimumCycleBasis(g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dim != mcb.Dim(g) {
		t.Fatalf("dim %d, want %d", res.Dim, mcb.Dim(g))
	}
	res2, err := MinimumCycleBasisOptsCtx(context.Background(), g, MCBOptions{UseEar: false, Platform: mcb.Multicore})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalWeight != res2.TotalWeight {
		t.Fatal("option variants disagree on weight")
	}
}

func TestReduceAndEars(t *testing.T) {
	cfg := gen.Config{MaxWeight: 3}
	rng := gen.NewRNG(7)
	ring := gen.Ring(15, cfg, rng)
	red, err := ReduceGraph(ring)
	if err != nil {
		t.Fatal(err)
	}
	if red.NumRemoved() != 14 {
		t.Fatalf("ring reduction removed %d", red.NumRemoved())
	}
	ears, err := EarDecompose(ring)
	if err != nil {
		t.Fatal(err)
	}
	if len(ears) != 1 {
		t.Fatalf("ring has %d ears", len(ears))
	}
}

// nilGraphCalls is every graph-taking entry point of the facade, called
// with a nil graph.
var nilGraphCalls = map[string]func() error{
	"ShortestPaths":     func() error { _, err := ShortestPaths(nil, 1); return err },
	"MinimumCycleBasis": func() error { _, err := MinimumCycleBasis(nil); return err },
	"MinimumCycleBasisOptsCtx": func() error {
		_, err := MinimumCycleBasisOptsCtx(context.Background(), nil, MCBOptions{})
		return err
	},
	"ReduceGraph":  func() error { _, err := ReduceGraph(nil); return err },
	"EarDecompose": func() error { _, err := EarDecompose(nil); return err },
}

// TestNilInputs: the nil-graph checks are the wrappers' own, so every
// entry point that reaches the pipeline is tried.
func TestNilInputs(t *testing.T) {
	for name, call := range nilGraphCalls {
		if err := call(); err == nil {
			t.Errorf("%s: nil graph accepted", name)
		}
	}
}

// TestFacadeNilGraphErrors: the refusal is the facade's own error, not one
// from deeper in the pipeline.
func TestFacadeNilGraphErrors(t *testing.T) {
	for name, call := range nilGraphCalls {
		if err := call(); !errors.Is(err, errNilGraph) {
			t.Errorf("%s(nil) = %v, want %v", name, err, errNilGraph)
		}
	}
}

func TestFacadeBCAndVerifiers(t *testing.T) {
	rng := gen.NewRNG(9)
	cfg := gen.Config{MaxWeight: 4}
	g := gen.Subdivide(gen.GNM(20, 32, cfg, rng), 0.4, 2, cfg, rng)

	oracle, err := ShortestPaths(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	// verify a path
	w := oracle.Path(0, int32(g.NumVertices()-1))
	if w != nil {
		if err := VerifyPath(g, w, oracle.Query(0, int32(g.NumVertices()-1))); err != nil {
			t.Fatal(err)
		}
	}
	basis, err := MinimumCycleBasis(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyCycleBasis(g, basis); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeShardedServing drives the sharded-serving surface through
// the facade only: plan a 2-shard cluster, round-trip the manifest and
// shard snapshots through their wire encodings, serve both shards over
// HTTP, and check the fan-out engine agrees with direct oracle queries.
func TestFacadeShardedServing(t *testing.T) {
	b := NewGraphBuilder(8)
	for _, e := range [][3]int32{
		{0, 1, 2}, {1, 2, 3}, {2, 0, 1}, // block A
		{2, 3, 5},                       // bridge
		{3, 4, 1}, {4, 5, 2}, {5, 3, 4}, // block B
		{5, 6, 1}, {6, 7, 2}, {7, 5, 3}, // block C
	} {
		b.AddEdge(e[0], e[1], Weight(e[2]))
	}
	g := b.Build()
	oracle, err := ShortestPaths(g, 1)
	if err != nil {
		t.Fatal(err)
	}

	plan, err := PlanShards(oracle, ShardPlanOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	var mbuf bytes.Buffer
	if _, err := WriteShardPlan(&mbuf, plan); err != nil {
		t.Fatal(err)
	}
	if plan, err = shard.ReadPlan(&mbuf); err != nil {
		t.Fatal(err)
	}

	addrs := make([]string, plan.NumShards)
	for sid := int32(0); sid < plan.NumShards; sid++ {
		var sbuf bytes.Buffer
		meta := ShardMeta{Epoch: plan.Epoch, Shard: sid, NumShards: plan.NumShards}
		if _, err := WriteShardSnapshot(&sbuf, oracle, meta, plan.OwnedMask(sid)); err != nil {
			t.Fatal(err)
		}
		sb, err := ReadShardSnapshot(&sbuf)
		if err != nil {
			t.Fatal(err)
		}
		mux := http.NewServeMux()
		shard.NewHandler(sb).Register(mux)
		ts := httptest.NewServer(mux)
		defer ts.Close()
		addrs[sid] = ts.URL
	}

	src, err := NewRemoteRowSource(ShardSourceConfig{Plan: plan, Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	engine := NewQueryEngine(src, EngineConfig{})
	ctx := context.Background()

	for u := int32(0); u < 8; u++ {
		for v := int32(0); v < 8; v++ {
			got, err := engine.Query(ctx, u, v)
			if err != nil {
				t.Fatalf("query(%d,%d): %v", u, v, err)
			}
			if want := oracle.Query(u, v); got != want {
				t.Fatalf("sharded query(%d,%d) = %v, oracle %v", u, v, got, want)
			}
		}
	}
	for _, st := range src.Status() {
		if !st.Healthy {
			t.Fatalf("shard %d unhealthy: %+v", st.ID, st)
		}
	}
}
