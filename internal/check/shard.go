package check

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"

	"repro/internal/apsp"
	"repro/internal/graph"
	"repro/internal/qe"
	"repro/internal/shard"
)

// shardCluster is an in-process serving cluster carved from one oracle:
// one httptest daemon per shard plus the frontend's fan-out source, the
// whole sharded serving path exercised over real HTTP.
type shardCluster struct {
	plan    *shard.Plan
	servers []*httptest.Server
	src     *shard.RemoteSource
}

func (c *shardCluster) close() {
	if c.src != nil {
		c.src.Close()
	}
	for _, ts := range c.servers {
		if ts != nil {
			ts.Close()
		}
	}
}

// newShardCluster plans o into the given shard count and boots the
// cluster, round-tripping the manifest and every shard snapshot through
// their wire encodings so the test covers what production loads, not
// in-memory shortcuts.
func newShardCluster(o *apsp.Oracle, shards int) (*shardCluster, error) {
	p, err := shard.PlanShards(o, shard.PlanOptions{Shards: shards})
	if err != nil {
		return nil, err
	}
	var mbuf bytes.Buffer
	if _, err := p.WriteTo(&mbuf); err != nil {
		return nil, err
	}
	if p, err = shard.ReadPlan(bytes.NewReader(mbuf.Bytes())); err != nil {
		return nil, err
	}
	c := &shardCluster{plan: p}
	addrs := make([]string, p.NumShards)
	for s := int32(0); s < p.NumShards; s++ {
		var buf bytes.Buffer
		meta := apsp.ShardMeta{Epoch: p.Epoch, Shard: s, NumShards: p.NumShards}
		if _, err := o.WriteShardSnapshot(&buf, meta, p.OwnedMask(s)); err != nil {
			c.close()
			return nil, err
		}
		sb, err := apsp.ReadShardSnapshot(bytes.NewReader(buf.Bytes()))
		if err != nil {
			c.close()
			return nil, err
		}
		mux := http.NewServeMux()
		shard.NewHandler(sb).Register(mux)
		ts := httptest.NewServer(mux)
		c.servers = append(c.servers, ts)
		addrs[s] = ts.URL
	}
	c.src, err = shard.NewRemoteSource(shard.SourceConfig{Plan: p, Addrs: addrs, MaxRetries: -1})
	if err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// ShardEquivalence asserts that a sharded frontend answers Query and
// Batch byte-identically to a monolith engine over the same graph: it
// builds one oracle, carves it into the given shard count behind real
// HTTP shard daemons, runs the full n×n distance matrix through both
// qe.Engine stacks twice — once as a Batch (the row path), once as n²
// point queries (the pair path) — and compares every float bit-for-bit
// (Inf included) with each other and with Oracle.QueryChecked. A nil
// return means no pair diverged.
func ShardEquivalence(g *graph.Graph, shards int) error {
	n := g.NumVertices()
	o := apsp.NewOracle(g)
	c, err := newShardCluster(o, shards)
	if err != nil {
		return err
	}
	defer c.close()

	ctx := context.Background()
	mono := qe.New(o, qe.Config{})
	front := qe.New(c.src, qe.Config{})
	if n == 0 {
		return nil
	}

	verts := make([]int32, n)
	for i := range verts {
		verts[i] = int32(i)
	}
	want, err := mono.Batch(ctx, verts, verts)
	if err != nil {
		return fmt.Errorf("monolith batch: %w", err)
	}
	got, err := front.Batch(ctx, verts, verts)
	if err != nil {
		return fmt.Errorf("sharded batch (%d shards): %w", shards, err)
	}
	for u := range want {
		for v := range want[u] {
			if math.Float64bits(float64(got[u][v])) != math.Float64bits(float64(want[u][v])) {
				return fmt.Errorf("sharded batch (%d shards) diverges at (%d,%d): %v, monolith %v",
					shards, u, v, got[u][v], want[u][v])
			}
		}
	}
	// Point queries take the pair path on both stacks — the monolith reads
	// its resident tables, the frontend fetches at most the pair's two
	// block rows — and every one of the n×n must agree with the other and
	// with the oracle's own QueryChecked, and with the row path above.
	for u := int32(0); int(u) < n; u++ {
		for v := int32(0); int(v) < n; v++ {
			dm, err := mono.Query(ctx, u, v)
			if err != nil {
				return fmt.Errorf("monolith query(%d,%d): %w", u, v, err)
			}
			ds, err := front.Query(ctx, u, v)
			if err != nil {
				return fmt.Errorf("sharded query(%d,%d): %w", u, v, err)
			}
			do, err := o.QueryChecked(u, v)
			if err != nil {
				return fmt.Errorf("oracle QueryChecked(%d,%d): %w", u, v, err)
			}
			bits := math.Float64bits(float64(do))
			if math.Float64bits(float64(dm)) != bits || math.Float64bits(float64(ds)) != bits ||
				math.Float64bits(float64(want[u][v])) != bits {
				return fmt.Errorf("pair (%d,%d) diverges at %d shards: sharded %v, monolith %v, oracle %v, row path %v",
					u, v, shards, ds, dm, do, want[u][v])
			}
		}
	}
	return nil
}
