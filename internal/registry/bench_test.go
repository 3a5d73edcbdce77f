package registry

import (
	"context"
	"testing"

	"repro/internal/obs"
	"repro/internal/qe"
)

// BenchmarkRegistryLookupWarm measures the full warm named-graph hop:
// Acquire (table hit, ref bump, LRU touch) → cached Query → Release.
// The benchgate baseline pins this at 0 allocs/op — the registry must
// add nothing to the engine's zero-alloc hot path.
func BenchmarkRegistryLookupWarm(b *testing.B) {
	lookup := warmLookup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lookup()
	}
}

// warmLookup is BenchmarkRegistryLookupWarm's set-up: a registry with one
// graph hydrated outside the measured loop, and the hop to measure.
func warmLookup(t testing.TB) func() {
	dir := t.TempDir()
	writeSnap(t, dir, "hot", testGraph(42))
	r, err := Open(Config{Dir: dir, MaxGraphs: 4, Engine: qe.Config{}, Reg: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	t.Cleanup(func() { r.Close(ctx) })
	lookup := func() {
		e, err := r.Acquire(ctx, "hot")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Engine().Query(ctx, 0, 1); err != nil {
			t.Fatal(err)
		}
		e.Release()
	}
	lookup()
	return lookup
}

// TestRegistryLookupWarmZeroAllocs is BenchmarkRegistryLookupWarm's 0
// allocs/op as a test.
func TestRegistryLookupWarmZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not meaningful under -race")
	}
	if allocs := testing.AllocsPerRun(100, warmLookup(t)); allocs != 0 {
		t.Fatalf("a warm Acquire, Query, Release allocates %v times", allocs)
	}
}
