package check

import (
	"context"
	"sync"
	"testing"

	"repro/internal/apsp"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/qe"
)

// TestDeltaEquivalenceCorpus is the acceptance sweep: every corpus graph ×
// every derived delta script, with the per-block recomputation at 1 and 8
// workers, must answer identically to rebuild-from-scratch (and to
// Floyd–Warshall).
func TestDeltaEquivalenceCorpus(t *testing.T) {
	for _, workers := range []int{1, 8} {
		for _, ng := range Corpus() {
			for _, sc := range DeltaScripts(ng.G, 0xdead) {
				if err := DeltaEquivalence(ng.G, ng.Name, sc.Deltas, workers); err != nil {
					t.Fatalf("workers=%d %s/%s: %v", workers, ng.Name, sc.Name, err)
				}
			}
		}
	}
}

func TestDeltaEquivalenceRandom(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		g := RandomGraph(seed, 28)
		for _, sc := range DeltaScripts(g, seed) {
			if err := DeltaEquivalence(g, "random", sc.Deltas, 4); err != nil {
				t.Fatalf("seed=%d %s: %v", seed, sc.Name, err)
			}
		}
	}
}

// TestDeltaUnderConcurrentTraffic drives distance queries through a qe
// engine while the oracle underneath it is replaced by successive
// ApplyDelta+SwapSource rounds — the serving-side race the -race runs in
// CI are after. Mid-flight answers may be old or new; after the final
// swap every answer must match a from-scratch rebuild.
func TestDeltaUnderConcurrentTraffic(t *testing.T) {
	g := Corpus()[2].G // necklace: several blocks, one component
	o := apsp.NewOracle(g)
	e := qe.New(o, qe.Config{MaxInflight: 8, QueueDepth: 64, Reg: obs.NewRegistry()})
	ctx := context.Background()

	scripts := DeltaScripts(g, 7)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				n := int32(e.NumVertices())
				u, v := int32((i+w)%int(n)), int32((i*7)%int(n))
				if _, err := e.Query(ctx, u, v); err != nil {
					t.Errorf("query (%d,%d): %v", u, v, err)
					return
				}
			}
		}(w)
	}

	cur := o
	var applied []apsp.Delta
	for _, sc := range scripts {
		next, _, err := cur.ApplyDelta(ctx, sc.Deltas)
		if err != nil {
			// A later script may be invalid against the already-mutated
			// graph (positional IDs); skip those — the traffic race is the
			// point here, not script validity.
			continue
		}
		e.SwapSource(next)
		cur = next
		applied = append(applied, sc.Deltas...)
	}
	close(stop)
	wg.Wait()

	mutated, err := apsp.MutateGraph(g, applied)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt := apsp.NewOracle(mutated)
	n := mutated.NumVertices()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			got, err := e.Query(ctx, int32(u), int32(v))
			if err != nil {
				t.Fatal(err)
			}
			if want := rebuilt.Query(int32(u), int32(v)); got != want {
				t.Fatalf("post-swap d(%d,%d) = %v, rebuild says %v", u, v, got, want)
			}
		}
	}
}

// TestDeltaScriptsAreValid pins the generator's contract: every script it
// derives applies cleanly to its graph.
func TestDeltaScriptsAreValid(t *testing.T) {
	for _, ng := range Corpus() {
		for _, sc := range DeltaScripts(ng.G, 3) {
			if _, err := apsp.MutateGraph(ng.G, sc.Deltas); err != nil {
				t.Fatalf("%s/%s: %v", ng.Name, sc.Name, err)
			}
		}
	}
	if _, _, ok := twoComponentReps(Corpus()[0].G); ok {
		t.Fatal("theta graph reported as disconnected")
	}
	two := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 1}})
	if u, v, ok := twoComponentReps(two); !ok || u == v {
		t.Fatalf("two-component graph: reps (%d,%d,%v)", u, v, ok)
	}
}

// TestMinimizeDeltasShrinks pins the ddmin loop with a synthetic
// predicate: failure iff the script still contains the poisoned record.
func TestMinimizeDeltasShrinks(t *testing.T) {
	g := Corpus()[0].G
	script := DeltaScripts(g, 1)
	var all []apsp.Delta
	for _, sc := range script {
		if sc.Name == "weight-bump" || sc.Name == "zero-weight" || sc.Name == "insert-in-block" {
			all = append(all, sc.Deltas...)
		}
	}
	if len(all) < 3 {
		t.Fatalf("want ≥ 3 single-record scripts, got %d", len(all))
	}
	poison := all[1]
	fails := func(cand []apsp.Delta) bool {
		for _, d := range cand {
			if d == poison {
				return true
			}
		}
		return false
	}
	cur := minimizeDeltas(all, fails)
	if len(cur) != 1 || cur[0] != poison {
		t.Fatalf("ddmin left %v, want just the poisoned record", cur)
	}
}
