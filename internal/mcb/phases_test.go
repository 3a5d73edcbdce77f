package mcb

import (
	"context"
	"testing"
	"time"

	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/obs"
)

// cyclesS is the benchmark's MCB instance (bench fixture cycles_s).
func cyclesS(t testing.TB) *graph.Graph {
	spec, err := datasets.ByName("as-22july06")
	if err != nil {
		t.Fatal(err)
	}
	return spec.Generate(0.02, 1)
}

// TestPhasesCoverCompute: the obs phases of a solve are a decomposition of
// it, not a sample — what ComputeCtx spends outside every phase stays
// under a tenth of the call (ROADMAP aim 1: attributable to a layer).
func TestPhasesCoverCompute(t *testing.T) {
	g := cyclesS(t)
	ph := obs.Default.Phases("mcb")
	names := []string{"prepare", "candidates", "labels", "scan", "witness", "price"}
	before := map[string]time.Duration{}
	for _, name := range names {
		before[name] = ph.Get(name)
	}
	t0 := time.Now()
	if _, err := ComputeCtx(context.Background(), g, Options{UseEar: true, Workers: 2, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(t0)
	var sum time.Duration
	for _, name := range names {
		d := ph.Get(name) - before[name]
		t.Logf("%-10s %v", name, d)
		sum += d
	}
	t.Logf("phases %v of %v", sum, wall)
	if sum < wall*9/10 || sum > wall {
		t.Errorf("phases sum to %v, want between 90%% and 100%% of the %v call", sum, wall)
	}
}
