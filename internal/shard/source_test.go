package shard

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apsp"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
)

// cluster is a full in-process sharded deployment: a monolith oracle,
// a plan round-tripped through its manifest bytes, per-shard snapshots
// round-tripped through their bytes, one httptest server per shard, and
// a RemoteSource stitching across them.
type cluster struct {
	o       *apsp.Oracle
	plan    *Plan
	servers []*httptest.Server
	src     *RemoteSource
	reg     *obs.Registry
}

type clusterOpts struct {
	epochSkew uint64 // added to shard snapshot epochs only
	wrap      func(i int, h http.Handler) http.Handler
	retries   int           // the source's retries after a failed fetch, 1ms apart
	probe     time.Duration // the source's probe interval; 0 runs no prober
}

func newCluster(t testing.TB, g *graph.Graph, shards int, opts clusterOpts) *cluster {
	t.Helper()
	o := apsp.NewOracle(g)
	p0, err := PlanShards(o, PlanOptions{Shards: shards})
	if err != nil {
		t.Fatalf("PlanShards: %v", err)
	}
	var mbuf bytes.Buffer
	if _, err := p0.WriteTo(&mbuf); err != nil {
		t.Fatalf("plan WriteTo: %v", err)
	}
	p, err := ReadPlan(bytes.NewReader(mbuf.Bytes()))
	if err != nil {
		t.Fatalf("ReadPlan: %v", err)
	}

	c := &cluster{o: o, plan: p, reg: obs.NewRegistry()}
	addrs := make([]string, shards)
	for s := 0; s < shards; s++ {
		var buf bytes.Buffer
		meta := apsp.ShardMeta{Epoch: p.Epoch + opts.epochSkew, Shard: int32(s), NumShards: int32(shards)}
		if _, err := o.WriteShardSnapshot(&buf, meta, p.OwnedMask(int32(s))); err != nil {
			t.Fatalf("WriteShardSnapshot(%d): %v", s, err)
		}
		sb, err := apsp.ReadShardSnapshot(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("ReadShardSnapshot(%d): %v", s, err)
		}
		mux := http.NewServeMux()
		NewHandler(sb).Register(mux)
		var h http.Handler = mux
		if opts.wrap != nil {
			h = opts.wrap(s, h)
		}
		srv := httptest.NewServer(h)
		c.servers = append(c.servers, srv)
		addrs[s] = srv.URL
	}
	t.Cleanup(func() {
		for _, srv := range c.servers {
			srv.Close()
		}
	})

	src, err := NewRemoteSource(SourceConfig{Plan: p, Addrs: addrs, ProbeInterval: opts.probe, Reg: c.reg})
	if err != nil {
		t.Fatalf("NewRemoteSource: %v", err)
	}
	src.maxRetries, src.backoff = opts.retries, time.Millisecond
	c.src = src
	t.Cleanup(func() { _ = src.Close() })
	return c
}

// oddballGraph exercises the stitch's corner cases in one graph: two
// nontrivial components, an isolated vertex, a self-loop block hanging
// off a vertex that is not an articulation point, and a parallel edge.
func oddballGraph() *graph.Graph {
	b := graph.NewBuilder(8)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 2)
	b.AddEdge(0, 2, 2.5)
	b.AddEdge(0, 2, 4) // parallel edge
	b.AddEdge(3, 4, 1.5)
	b.AddEdge(6, 6, 3) // self-loop: {6} is its own block
	b.AddEdge(6, 7, 1)
	// vertex 5 stays isolated
	return b.Build()
}

func equivGraphs() []struct {
	name string
	g    *graph.Graph
} {
	cfg := gen.Config{MaxWeight: 7}
	rng := gen.NewRNG(0xc0ffee)
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"theta", gen.Theta([]int{2, 3, 4}, cfg, rng)},
		{"necklace", gen.CycleNecklace(4, 4, cfg, rng)},
		{"bridge-chain", gen.BridgeChain(4, 4, cfg, rng)},
		{"loop-flower", gen.LoopFlower(3, 3, cfg, rng)},
		{"multigraph", gen.Multigraph(12, 18, 3, 2, cfg, rng)},
		{"oddball", oddballGraph()},
	}
}

// TestRemoteSourceMatchesMonolith is the core byte-identity claim: every
// row the fan-out source stitches — including isolated vertices and
// cross-component Infs — equals the monolith oracle's Row output exactly,
// with the same operation count. (Out-of-range sources are a typed error
// on this surface: TestRowCtxOutOfRangeTyped.)
func TestRemoteSourceMatchesMonolith(t *testing.T) {
	for _, tc := range equivGraphs() {
		for _, shards := range []int{1, 2, 3} {
			t.Run(tc.name, func(t *testing.T) {
				c := newCluster(t, tc.g, shards, clusterOpts{})
				n := tc.g.NumVertices()
				want := make([]graph.Weight, n)
				got := make([]graph.Weight, n)
				for u := int32(0); int(u) < n; u++ {
					wops := c.o.Row(u, want)
					gops, err := c.src.RowCtx(context.Background(), u, got)
					if err != nil {
						t.Fatalf("shards=%d RowCtx(%d): %v", shards, u, err)
					}
					if gops != wops {
						t.Errorf("shards=%d Row(%d): %d ops, monolith %d", shards, u, gops, wops)
					}
					for v := 0; v < n; v++ {
						if got[v] != want[v] {
							t.Fatalf("shards=%d d(%d,%d) = %v, monolith %v", shards, u, v, got[v], want[v])
						}
					}
					if c.src.RowCost(u) != c.o.RowCost(u) {
						t.Errorf("RowCost(%d) = %d, monolith %d", u, c.src.RowCost(u), c.o.RowCost(u))
					}
				}
			})
		}
	}
}

// pickCrossShardSource finds a source vertex whose row needs the given
// shard but whose own block lives elsewhere — the case where a remote
// failure must surface as an error, not a wrong answer.
func pickCrossShardSource(t *testing.T, c *cluster, down int32) int32 {
	p := c.plan
	for u := int32(0); int(u) < p.NumVertices; u++ {
		if p.o.BCT.CutIndex[u] >= 0 {
			continue
		}
		bu := p.BlockOf[u]
		if bu < 0 || p.BlockShard[bu] == down {
			continue
		}
		// Does u's component reach a block on the down shard?
		got := make([]graph.Weight, p.NumVertices)
		if _, err := c.src.RowCtx(context.Background(), u, got); err != nil {
			return u
		}
	}
	t.Skip("no cross-shard source in this layout")
	return -1
}

// TestShardUnavailableTyped: killing one shard turns queries needing it
// into ErrShardUnavailable (carrying the shard ID), while queries served
// wholly by surviving shards keep answering correctly.
func TestShardUnavailableTyped(t *testing.T) {
	cfg := gen.Config{MaxWeight: 7}
	rng := gen.NewRNG(0xdead)
	g := gen.BridgeChain(6, 4, cfg, rng)
	c := newCluster(t, g, 2, clusterOpts{})
	const down = int32(1)
	c.servers[down].Close()

	u := pickCrossShardSource(t, c, down)
	got := make([]graph.Weight, c.plan.NumVertices)
	_, err := c.src.RowCtx(context.Background(), u, got)
	if !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("RowCtx(%d) with shard %d down: err=%v, want ErrShardUnavailable", u, down, err)
	}
	var se *Error
	if !errors.As(err, &se) {
		t.Fatalf("err=%v does not carry *shard.Error", err)
	}
	if se.Shard != down {
		t.Fatalf("error names shard %d, killed %d", se.Shard, down)
	}

	// A source wholly on the surviving shard still answers exactly.
	for u := int32(0); int(u) < c.plan.NumVertices; u++ {
		bu := c.plan.BlockOf[u]
		if c.o.BCT.CutIndex[u] >= 0 || bu < 0 || c.plan.BlockShard[bu] == down {
			continue
		}
		want := make([]graph.Weight, c.plan.NumVertices)
		c.o.Row(u, want)
		if _, err := c.src.RowCtx(context.Background(), u, got); err == nil {
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("degraded d(%d,%d) = %v, monolith %v", u, v, got[v], want[v])
				}
			}
			break
		}
	}

	if st := c.src.Status(); !st[0].Healthy && st[int(down)].Healthy {
		t.Fatalf("status after outage: %+v", st)
	}
}

// TestEpochMismatchTyped: a shard carved under a different plan epoch is
// refused with the typed, non-retryable error.
func TestEpochMismatchTyped(t *testing.T) {
	cfg := gen.Config{MaxWeight: 7}
	rng := gen.NewRNG(0xabba)
	g := gen.BridgeChain(4, 3, cfg, rng)
	c := newCluster(t, g, 2, clusterOpts{
		epochSkew: 1,
		retries:   3,
	})
	got := make([]graph.Weight, c.plan.NumVertices)
	_, err := c.src.RowCtx(context.Background(), 0, got)
	if !errors.Is(err, ErrEpochMismatch) {
		t.Fatalf("err=%v, want ErrEpochMismatch", err)
	}
	if n := c.reg.Counter("shard.rpc.retries").Value(); n != 0 {
		t.Fatalf("epoch mismatch was retried %d times", n)
	}
}

// TestRetryRecovers: a shard failing its first attempt is retried with
// backoff and the row still stitches exactly.
func TestRetryRecovers(t *testing.T) {
	cfg := gen.Config{MaxWeight: 7}
	rng := gen.NewRNG(0x5eed)
	g := gen.BridgeChain(4, 3, cfg, rng)
	var failures atomic.Int32
	failures.Store(2)
	c := newCluster(t, g, 2, clusterOpts{
		wrap: func(i int, h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/internal/rows" && failures.Add(-1) >= 0 {
					http.Error(w, "induced failure", http.StatusInternalServerError)
					return
				}
				h.ServeHTTP(w, r)
			})
		},
		retries: 3,
	})
	n := c.plan.NumVertices
	want := make([]graph.Weight, n)
	got := make([]graph.Weight, n)
	c.o.Row(0, want)
	if _, err := c.src.RowCtx(context.Background(), 0, got); err != nil {
		t.Fatalf("RowCtx with flaky shard: %v", err)
	}
	for v := 0; v < n; v++ {
		if got[v] != want[v] {
			t.Fatalf("d(0,%d) = %v, monolith %v", v, got[v], want[v])
		}
	}
	if c.reg.Counter("shard.rpc.retries").Value() == 0 {
		t.Fatal("no retries recorded")
	}
}

// TestProbeMarksHealth: the active prober flips a killed shard to
// unhealthy without any query traffic.
func TestProbeMarksHealth(t *testing.T) {
	cfg := gen.Config{MaxWeight: 7}
	rng := gen.NewRNG(0x9a1e)
	g := gen.BridgeChain(4, 3, cfg, rng)
	c := newCluster(t, g, 2, clusterOpts{
		probe: 2 * time.Millisecond,
	})
	c.servers[1].Close()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if st := c.src.Status(); !st[1].Healthy && st[1].LastError != "" {
			if st[1].Blocks != c.plan.ShardBlockCount(1) {
				t.Fatalf("status blocks %d, plan %d", st[1].Blocks, c.plan.ShardBlockCount(1))
			}
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("prober never marked the killed shard unhealthy")
}

// readCounter counts the bytes a client reads of a response body.
type readCounter struct {
	io.ReadCloser
	read *atomic.Int64
}

func (b readCounter) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.read.Add(int64(n))
	return n, err
}

// TestProbeReadIsBounded: a /internal/health that streams one endless JSON
// string is marked unhealthy once the probe's read limit is spent — not
// when the client's timeout fires, with everything sent until then
// buffered by the decoder.
func TestProbeReadIsBounded(t *testing.T) {
	const timeout = 5 * time.Second
	var read atomic.Int64
	g := gen.BridgeChain(4, 3, gen.Config{MaxWeight: 7}, gen.NewRNG(0x9a1e))
	c := newCluster(t, g, 2, clusterOpts{
		wrap: func(i int, h http.Handler) http.Handler {
			if i != 0 {
				return h
			}
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path != "/internal/health" {
					h.ServeHTTP(w, r)
					return
				}
				_, _ = io.WriteString(w, `{"status":"`)
				chunk := bytes.Repeat([]byte("a"), 1024)
				for r.Context().Err() == nil {
					if _, err := w.Write(chunk); err != nil {
						return // the prober hung up
					}
				}
			})
		},
	})
	c.src.client = &http.Client{Timeout: timeout, Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		resp, err := http.DefaultTransport.RoundTrip(r)
		if err == nil {
			resp.Body = readCounter{resp.Body, &read}
		}
		return resp, err
	})}
	start := time.Now()
	c.src.probeShard(0)
	if st := c.src.Status()[0]; st.Healthy || !strings.Contains(st.LastError, "health probe") {
		t.Fatalf("endless health body left shard 0 %+v", st)
	}
	if n := read.Load(); n == 0 || n > healthBodyLimit {
		t.Fatalf("probe read %d bytes of an endless body, limit %d", n, healthBodyLimit)
	}
	if took := time.Since(start); took >= timeout {
		t.Fatalf("probe returned after %v: the client timeout ended it, not the limit", took)
	}
	c.src.probeShard(1)
	if st := c.src.Status()[1]; !st.Healthy {
		t.Fatalf("a well-formed health reply left shard 1 %+v", st)
	}
}
