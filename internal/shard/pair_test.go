package shard

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/apsp"
	"repro/internal/gen"
)

// TestRemoteSourcePairMatchesMonolith is the pair path's byte-identity
// claim over real HTTP: every pair a frontend answers equals the monolith
// oracle's Query bit for bit (Inf included), and costs at most two
// fetched block rows — none when both ends are articulation points, whose
// answer is the frontend's own A.
func TestRemoteSourcePairMatchesMonolith(t *testing.T) {
	ctx := context.Background()
	for _, tc := range equivGraphs() {
		for _, shards := range []int{1, 2, 3} {
			c := newCluster(t, tc.g, shards, clusterOpts{})
			fetched, rpcs := c.reg.Counter("shard.rows.fetched"), c.reg.Counter("shard.rpc.requests")
			n := int32(tc.g.NumVertices())
			for u := int32(0); u < n; u++ {
				for v := int32(0); v < n; v++ {
					f0, r0 := fetched.Value(), rpcs.Value()
					got, err := c.src.Pair(ctx, u, v)
					if err != nil {
						t.Fatalf("%s shards=%d Pair(%d,%d): %v", tc.name, shards, u, v, err)
					}
					if want := c.o.Query(u, v); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s shards=%d d(%d,%d) = %v, monolith %v",
							tc.name, shards, u, v, got, want)
					}
					rows, calls := fetched.Value()-f0, rpcs.Value()-r0
					bothAP := c.plan.StitchView().CutIndex[u] >= 0 && c.plan.StitchView().CutIndex[v] >= 0
					if rows > 2 || calls > rows || (bothAP || u == v) && rows != 0 {
						t.Fatalf("%s shards=%d Pair(%d,%d) fetched %d block rows in %d RPCs (both APs: %v)",
							tc.name, shards, u, v, rows, calls, bothAP)
					}
				}
			}
			if got := c.reg.Counter("shard.pairs").Value(); got != int64(n)*int64(n) {
				t.Fatalf("shard.pairs = %d, want %d", got, int64(n)*int64(n))
			}
			if got := c.reg.Counter("shard.rows.stitched").Value(); got != 0 {
				t.Fatalf("pair queries stitched %d rows, want 0", got)
			}
		}
	}
}

// TestPairOutOfRangeTyped: the pair surface reports a bad vertex the way
// the row surface does, and asks no shard.
func TestPairOutOfRangeTyped(t *testing.T) {
	c := newCluster(t, testGraph(), 2, clusterOpts{})
	for _, uv := range [][2]int32{{-1, 0}, {0, int32(c.plan.NumVertices)}} {
		d, err := c.src.Pair(context.Background(), uv[0], uv[1])
		var qe *apsp.QueryError
		if !errors.Is(err, apsp.ErrVertexRange) || !errors.As(err, &qe) || d != apsp.Inf {
			t.Fatalf("Pair(%d,%d) = %v, %v; want Inf and a *QueryError wrapping ErrVertexRange", uv[0], uv[1], d, err)
		}
	}
	if got := c.reg.Counter("shard.rpc.requests").Value(); got != 0 {
		t.Fatalf("out-of-range pairs sent %d RPCs", got)
	}
}

// TestPairShardUnavailableTyped: with one shard down, a pair that needs a
// block row from it fails with the typed error naming that shard — never
// an Inf that reads as "unreachable" — while pairs served by the surviving
// shard and the frontend's own A keep answering exactly.
func TestPairShardUnavailableTyped(t *testing.T) {
	cfg := gen.Config{MaxWeight: 7}
	rng := gen.NewRNG(0xdead)
	g := gen.BridgeChain(6, 4, cfg, rng)
	c := newCluster(t, g, 2, clusterOpts{})
	const down = int32(1)
	c.servers[down].Close()

	ctx := context.Background()
	p := c.plan
	failed, served := 0, 0
	for u := int32(0); int(u) < p.NumVertices; u++ {
		for v := int32(0); int(v) < p.NumVertices; v++ {
			plan, _ := p.StitchView().PlanPair(u, v)
			needsDown := false
			for _, e := range plan.Want[:plan.N] {
				needsDown = needsDown || p.BlockShard[e.Block] == down
			}
			d, err := c.src.Pair(ctx, u, v)
			if !needsDown {
				if want := c.o.Query(u, v); err != nil || d != want {
					t.Fatalf("Pair(%d,%d) off the dead shard = %v, %v; monolith %v", u, v, d, err, want)
				}
				served++
				continue
			}
			var se *Error
			if !errors.Is(err, ErrShardUnavailable) || !errors.As(err, &se) || se.Shard != down || d != apsp.Inf {
				t.Fatalf("Pair(%d,%d) needing shard %d = %v, %v; want ErrShardUnavailable naming it", u, v, down, d, err)
			}
			failed++
		}
	}
	if failed == 0 || served == 0 {
		t.Fatalf("layout exercised %d failing and %d surviving pairs; want both", failed, served)
	}
}

// BenchmarkRemoteSourcePair measures one pair through a frontend: the
// pair kernel over the plan plus at most two block rows from the same two
// loopback shards BenchmarkRemoteSourceRow fetches every block from.
// Recorded in CI beside it, not gated.
func BenchmarkRemoteSourcePair(b *testing.B) {
	c := newCluster(b, testGraph(), 2, clusterOpts{})
	n := int32(c.plan.NumVertices)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.src.Pair(ctx, int32(i)%n, int32(i*7+3)%n); err != nil {
			b.Fatal(err)
		}
	}
}
