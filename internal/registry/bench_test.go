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
	dir := b.TempDir()
	writeSnap(b, dir, "hot", testGraph(42))
	r, err := Open(Config{Dir: dir, MaxGraphs: 4, Engine: qe.Config{}, Reg: obs.NewRegistry()})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	// Hydrate outside the measured loop.
	e, err := r.Acquire(ctx, "hot")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.Engine().Query(ctx, 0, 1); err != nil {
		b.Fatal(err)
	}
	e.Release()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := r.Acquire(ctx, "hot")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Engine().Query(ctx, 0, 1); err != nil {
			b.Fatal(err)
		}
		e.Release()
	}
}
