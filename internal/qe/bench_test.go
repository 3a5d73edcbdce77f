package qe

import (
	"context"
	"testing"
	"time"

	"repro/internal/apsp"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
)

// benchOracle builds a moderately sized multi-block oracle once per
// benchmark binary: chained blocks with injected degree-2 chains, the
// topology the ear reduction is designed for.
func benchOracle(b *testing.B) *apsp.Oracle {
	b.Helper()
	cfg := gen.Config{MaxWeight: 20}
	rng := gen.NewRNG(99)
	g := gen.ChainBlocks([]*graph.Graph{
		gen.PlanarEars(120, 4, cfg, rng),
		gen.GNM(80, 160, cfg, rng),
		gen.Ring(60, cfg, rng),
	}, cfg, rng)
	g = gen.Subdivide(g, 0.4, 2, cfg, rng)
	return apsp.NewOracle(g)
}

// rowsOnly hides the oracle's pair method, so that Query takes the row
// path BenchmarkQEQueryCold is named for and its baseline keeps its
// meaning.
type rowsOnly struct{ o *apsp.Oracle }

func (r rowsOnly) NumVertices() int                        { return r.o.NumVertices() }
func (r rowsOnly) Row(src int32, out []graph.Weight) int64 { return r.o.Row(src, out) }

// BenchmarkQEQueryPair measures the point-query path over an oracle:
// admission + the oracle's O(1) pair lookup. No row is involved. The
// engine has the deadline oracled's -deadline defaults to, so a deadline
// context on this path would show in allocs/op.
func BenchmarkQEQueryPair(b *testing.B) {
	o := benchOracle(b)
	e := New(o, Config{MaxInflight: 4, QueueDepth: 64, Deadline: 2 * time.Second, Reg: obs.NewRegistry()})
	ctx := context.Background()
	n := int32(o.NumVertices())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := int32(i) % n
		v := int32(i*7) % n
		if _, err := e.Query(ctx, u, v); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQEQueryCold measures the row path of a point query, the one a
// source without a pair method takes: admission, one row build into the
// pooled scratch row, one read.
func BenchmarkQEQueryCold(b *testing.B) {
	o := rowsOnly{benchOracle(b)}
	e := New(o, Config{MaxInflight: 4, QueueDepth: 64, Reg: obs.NewRegistry()})
	ctx := context.Background()
	n := int32(o.NumVertices())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Query(ctx, int32(i)%n, int32(i+1)%n); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQEBatch measures a 64×64 many-to-many batch on one persistent
// engine: the row builds, spread over 8 workers, dominate. Allocations are
// the result matrix plus the fan-out's goroutines.
func BenchmarkQEBatch(b *testing.B) {
	o := benchOracle(b)
	n := int32(o.NumVertices())
	sources := make([]int32, 64)
	targets := make([]int32, 64)
	for i := range sources {
		sources[i] = int32(i*3) % n
		targets[i] = int32(i*5+1) % n
	}
	e := New(o, Config{MaxInflight: 8, QueueDepth: 64, Reg: obs.NewRegistry()})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Batch(ctx, sources, targets); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQERowBuild isolates one oracle row computation, the unit the
// engine schedules.
func BenchmarkQERowBuild(b *testing.B) {
	o := benchOracle(b)
	row := make([]graph.Weight, o.NumVertices())
	n := int32(o.NumVertices())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Row(int32(i)%n, row)
	}
}
