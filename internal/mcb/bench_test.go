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

// zeroBlock is a block of 64 zero witnesses over benchGraph's search:
// every cycle is orthogonal to each, so nothing is found or removed and
// every block does the same work.
func zeroBlock(t testing.TB) (*labelState, []*bitvec.Vector) {
	ls, sp := searchOn(t, benchGraph(), 1)
	zero := make([]*bitvec.Vector, 64)
	for k := range zero {
		zero[k] = bitvec.New(sp.dim())
	}
	return ls, zero
}

// searchBlock runs the 64 phases of one block: a relabel, then 64 scans.
func searchBlock(t testing.TB, ls *labelState, block []*bitvec.Vector) {
	for k := range block {
		if _, _, ok := ls.next(block, k); ok {
			t.Fatal("a cycle is not orthogonal to the zero witness")
		}
	}
}

// BenchmarkMCBSearch is one block of the labelled search on its own: relabel
// every tree against 64 zero witnesses, then scan every candidate 64 times.
// ns/unit is per label and candidate op of the model, which charges every
// phase one op per tree vertex and per live candidate.
func BenchmarkMCBSearch(b *testing.B) {
	ls, zero := zeroBlock(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		searchBlock(b, ls, zero)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*64*(len(ls.nodes)+len(ls.recs))), "ns/unit")
}

// TestMCBSearchZeroAllocs is BenchmarkMCBSearch's 0 allocs/op as a test:
// once built, a block of relabel and scans allocates nothing.
func TestMCBSearchZeroAllocs(t *testing.T) {
	ls, zero := zeroBlock(t)
	if allocs := testing.AllocsPerRun(5, func() { searchBlock(t, ls, zero) }); allocs != 0 {
		t.Fatalf("a labelled-search block allocates %v times", allocs)
	}
}
