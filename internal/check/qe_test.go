package check

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/apsp"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/qe"
)

// TestQEBatchMatchesOracle is the differential sweep for the query
// engine: on every pathological corpus topology, a full all-pairs Batch
// through the engine (per-worker scratch rows, parallel row builds) must
// equal pairwise Oracle.QueryChecked.
func TestQEBatchMatchesOracle(t *testing.T) {
	for _, ng := range Corpus() {
		o := apsp.NewOracle(ng.G)
		n := int32(ng.G.NumVertices())
		e := qe.New(o, qe.Config{MaxInflight: 4, QueueDepth: 16, Reg: obs.NewRegistry()})
		all := make([]int32, n)
		for i := range all {
			all[i] = int32(i)
		}
		got, err := e.Batch(context.Background(), all, all)
		if err != nil {
			t.Fatalf("%s: batch: %v", ng.Name, err)
		}
		for u := int32(0); u < n; u++ {
			for v := int32(0); v < n; v++ {
				want, err := o.QueryChecked(u, v)
				if err != nil {
					t.Fatalf("%s: QueryChecked(%d,%d): %v", ng.Name, u, v, err)
				}
				if got[u][v] != want {
					t.Fatalf("%s: batch d(%d,%d) = %v, oracle says %v", ng.Name, u, v, got[u][v], want)
				}
			}
		}
	}
}

// TestQEConcurrentBatchAndQuery hammers one engine with overlapping
// batches and point queries from many goroutines — run under -race in CI,
// this is the data-race certificate for the pair, per-batch row, and
// admission paths against a real oracle. Every answer is still checked
// against the reference.
func TestQEConcurrentBatchAndQuery(t *testing.T) {
	cfg := gen.Config{MaxWeight: 9}
	rng := gen.NewRNG(0xfeedbee)
	g := gen.ChainBlocks([]*graph.Graph{
		gen.CycleNecklace(4, 3, cfg, rng),
		gen.Theta([]int{0, 2, 3}, cfg, rng),
		gen.LoopFlower(2, 3, cfg, rng),
	}, cfg, rng)
	o := apsp.NewOracle(g)
	ref := apsp.FloydWarshall(g)
	n := int32(g.NumVertices())
	e := qe.New(o, qe.Config{MaxInflight: 4, QueueDepth: 128, Reg: obs.NewRegistry()})
	ctx := context.Background()

	var wg sync.WaitGroup
	errc := make(chan error, 12)
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int32(0); i < n; i++ {
				u, v := (i+int32(w))%n, (i*3+1)%n
				d, err := e.Query(ctx, u, v)
				if err != nil {
					errc <- err
					return
				}
				if want := ref[int(u)*int(n)+int(v)]; d != want {
					errc <- fmt.Errorf("concurrent qe d(%d,%d) = %v, want %v", u, v, d, want)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sources := []int32{int32(w) % n, (int32(w) + 5) % n, int32(w) % n}
			targets := make([]int32, n)
			for i := range targets {
				targets[i] = int32(i)
			}
			for rep := 0; rep < 8; rep++ {
				rows, err := e.Batch(ctx, sources, targets)
				if err != nil {
					errc <- err
					return
				}
				for i, u := range sources {
					for v := int32(0); v < n; v++ {
						if want := ref[int(u)*int(n)+int(v)]; rows[i][v] != want {
							errc <- fmt.Errorf("concurrent batch d(%d,%d) = %v, want %v", u, v, rows[i][v], want)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}
