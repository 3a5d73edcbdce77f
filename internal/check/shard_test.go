package check

import (
	"context"
	"errors"
	"testing"

	"repro/internal/apsp"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/qe"
	"repro/internal/shard"
)

// shardOddballs are the degenerate topologies the corpus does not carry:
// disconnected pieces, self-loops (singleton blocks), and parallel edges
// all stress the planner's block bookkeeping and the frontend's stitch.
func shardOddballs() []NamedGraph {
	return []NamedGraph{
		{"disconnected", graph.FromEdges(7, []graph.Edge{
			{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 3}, {U: 2, V: 0, W: 4},
			{U: 3, V: 4, W: 1}, {U: 4, V: 5, W: 5}, {U: 5, V: 3, W: 2},
		})},
		{"self-loops", graph.FromEdges(5, []graph.Edge{
			{U: 0, V: 0, W: 1}, {U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 3},
			{U: 2, V: 2, W: 4}, {U: 2, V: 3, W: 1},
		})},
		{"parallel-edges", graph.FromEdges(6, []graph.Edge{
			{U: 0, V: 1, W: 5}, {U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 1},
			{U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 7}, {U: 3, V: 4, W: 1},
			{U: 4, V: 2, W: 2},
		})},
		{"isolated-vertices", graph.FromEdges(6, []graph.Edge{
			{U: 1, V: 2, W: 3}, {U: 2, V: 3, W: 1}, {U: 3, V: 1, W: 4},
		})},
	}
}

// TestShardedEquivalenceCorpus is the sharded-serving sweep: 2- and
// 4-shard frontends must answer Query and Batch byte-identically to a
// monolith engine over every corpus topology plus the degenerate cases.
func TestShardedEquivalenceCorpus(t *testing.T) {
	graphs := append(Corpus(), shardOddballs()...)
	for _, ng := range graphs {
		for _, shards := range []int{2, 4} {
			if err := ShardEquivalence(ng.G, shards); err != nil {
				t.Errorf("%s: %v", ng.Name, err)
			}
		}
	}
}

// TestShardedEquivalenceRandom runs the same sweep over the seeded
// random generator families.
func TestShardedEquivalenceRandom(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded random sweep skipped in -short")
	}
	for seed := uint64(0); seed < 8; seed++ {
		g := RandomGraph(seed, 24)
		if err := ShardEquivalence(g, 2); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestShardedFaultTyped kills one shard daemon and asserts the frontend
// degrades into typed errors — never a panic, never a silently wrong
// answer: every engine result either matches the monolith or carries
// ErrShardUnavailable with the dead shard pinned.
func TestShardedFaultTyped(t *testing.T) {
	g := Corpus()[4].G // bridge-chain: many blocks, guaranteed cross-shard rows
	o := apsp.NewOracle(g)
	c, err := newShardCluster(o, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	ctx := context.Background()
	mono := qe.New(o, qe.Config{Reg: obs.NewRegistry()})
	// The engine keeps no rows, so every query re-runs the fan-out and the
	// dead shard cannot hide behind rows fetched before the kill.
	front := qe.New(c.src, qe.Config{Reg: obs.NewRegistry()})

	const dead = 1
	c.servers[dead].Close()
	c.servers[dead] = nil

	n := g.NumVertices()
	var failed, matched int
	for u := 0; u < n; u++ {
		ds, err := front.Query(ctx, int32(u), int32((u+1)%n))
		if err != nil {
			if !errors.Is(err, shard.ErrShardUnavailable) {
				t.Fatalf("query(%d): untyped error %v", u, err)
			}
			var se *shard.Error
			if !errors.As(err, &se) {
				t.Fatalf("query(%d): error %v lacks *shard.Error", u, err)
			}
			if se.Shard != dead {
				t.Fatalf("query(%d): blames shard %d, killed %d", u, se.Shard, dead)
			}
			failed++
			continue
		}
		dm, err := mono.Query(ctx, int32(u), int32((u+1)%n))
		if err != nil {
			t.Fatal(err)
		}
		if ds != dm {
			t.Fatalf("query(%d) = %v with shard %d dead, monolith %v — wrong answer instead of typed error",
				u, ds, dead, dm)
		}
		matched++
	}
	if failed == 0 {
		t.Fatal("no query touched the dead shard; the fault path went unexercised")
	}
	if matched == 0 {
		t.Log("every row crossed the dead shard (acceptable: all answers were typed errors)")
	}
}
