package mcb

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/datasets"
	"repro/internal/graph"
)

// cyclesS is the benchmark's MCB instance (bench fixture cycles_s).
func cyclesS(t testing.TB) *graph.Graph {
	spec, err := datasets.ByName("as-22july06")
	if err != nil {
		t.Fatal(err)
	}
	return spec.Generate(0.02, 1)
}

// TestPhasesCoverCompute: the phases a solve reports in Result.Timing are
// a decomposition of it, not a sample — what ComputeCtx spends outside
// every phase stays under a tenth of the call (ROADMAP aim 1:
// attributable to a layer).
func TestPhasesCoverCompute(t *testing.T) {
	g := cyclesS(t)
	t0 := time.Now()
	res, err := ComputeCtx(context.Background(), g, Options{UseEar: true, Workers: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Since(t0)
	want := []string{"candidates", "labels", "scan", "witness", "prepare", "price"}
	if got := res.Timing.String(); !strings.HasPrefix(got, `{"candidates_us":`) {
		t.Errorf("Timing %s does not start with the first solve's phases", got)
	}
	var sum time.Duration
	for _, name := range want {
		d := res.Timing.Get(name)
		t.Logf("%-10s %v", name, d)
		sum += d
	}
	t.Logf("phases %v of %v", sum, wall)
	if total := res.Timing.Total(); total != sum {
		t.Errorf("Timing holds %v outside the six phases %v", total-sum, want)
	}
	if sum < wall*9/10 || sum > wall {
		t.Errorf("phases sum to %v, want between 90%% and 100%% of the %v call", sum, wall)
	}
}
