package mcb

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/gen"
	"repro/internal/graph"
)

// benchGraph is a mid-size planar-ish instance: large enough that the
// candidate phase (one labelled SP tree per FVS vertex) dominates and the
// worker pool has real work to spread, small enough for CI's 1x smoke run.
func benchGraph() *graph.Graph {
	cfg := gen.Config{MaxWeight: 9}
	rng := gen.NewRNG(11)
	return gen.TriangulatedGrid(20, 20, cfg, rng)
}

// BenchmarkMCBCandidates isolates the candidate-generation phase — the
// tentpole's stage A — sequential vs the 8-worker pool. CI's bench-smoke
// step records both as BENCH_mcb.json; the acceptance bar is >1.5×
// at 8 workers.
func BenchmarkMCBCandidates(b *testing.B) {
	g := benchGraph()
	roots := FeedbackVertexSet(g)
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cs, err := buildCandidatesCtx(context.Background(), g, roots, workers)
				if err != nil {
					b.Fatal(err)
				}
				if len(cs.cands) == 0 {
					b.Fatal("no candidates generated")
				}
			}
		})
	}
}

// BenchmarkMCBCompute times the whole pipeline end-to-end at both worker
// counts, so the candidate-phase speedup above can be read against its
// effect on total basis time.
func BenchmarkMCBCompute(b *testing.B) {
	g := benchGraph()
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := ComputeCtx(context.Background(), g, Options{UseEar: true, Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if res.Dim == 0 {
					b.Fatal("empty basis")
				}
			}
		})
	}
}

// BenchmarkMCBSearch is one phase of the labelled search on its own:
// relabel every tree, scan every candidate. Every cycle is orthogonal to
// the zero witness, so nothing is found or removed and every iteration
// does the same work; ns/unit is per label and candidate op.
func BenchmarkMCBSearch(b *testing.B) {
	l, sp := searchOn(b, benchGraph(), 1)
	zero := bitvec.New(sp.dim())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.ls.relabel(zero)
		if hit, _ := l.ls.scan(); hit >= 0 {
			b.Fatal("a cycle is not orthogonal to the zero witness")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*(len(l.ls.nodes)+len(l.ls.recs))), "ns/unit")
}
