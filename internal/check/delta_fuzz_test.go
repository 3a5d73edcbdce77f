package check

import (
	"context"
	"errors"
	"testing"

	"repro/internal/apsp"
)

// FuzzApplyDelta feeds arbitrary bytes through the total
// (graph, delta script) decoders and holds ApplyDelta to its contract on
// the result: no panics, a successful apply on every by-construction
// valid script, post-apply structural invariants, exact agreement with a
// from-scratch rebuild of the mutated graph, and typed errors (ErrBadDelta,
// nothing else) on a deliberately corrupted script.
//
// Run locally with e.g.
//
//	go test ./internal/check -run='^$' -fuzz=FuzzApplyDelta -fuzztime=30s
func FuzzApplyDelta(f *testing.F) {
	// Seed with the pathological corpus followed by a mixed script tail.
	tail := []byte{
		0, 1, 0, 0, 5, // weight
		1, 200, 0, 3, 2, // insert
		2, 0, 0, 0, 0, // delete
	}
	for _, ng := range Corpus() {
		if data, err := EncodeGraph(ng.G, 24); err == nil {
			f.Add(append(append([]byte(nil), data...), tail...))
			// Duplicated graph bytes put the script region on top of the
			// same topology after the half split.
			f.Add(append(append(append([]byte(nil), data...), data...), tail...))
		}
	}
	f.Add([]byte{})
	f.Add([]byte{3, 0, 1, 2, 1, 2, 3, 1, 100, 0, 0, 9})

	ctx := context.Background()
	f.Fuzz(func(t *testing.T, data []byte) {
		half := len(data) / 2
		g := DecodeGraph(data[:half], 24, 40)
		script := DecodeDeltaScript(data[half:], g.NumVertices(), g.NumEdges(), 10)

		base := apsp.NewOracle(g)
		applied, _, err := base.ApplyDelta(ctx, script)
		if err != nil {
			t.Fatalf("valid-by-construction script rejected: %v\nscript: %v", err, script)
		}
		if err := applied.CheckInvariants(); err != nil {
			t.Fatalf("post-apply invariants: %v\nscript: %v", err, script)
		}

		mutated, err := apsp.MutateGraph(g, script)
		if err != nil {
			t.Fatalf("reference mutation rejected: %v", err)
		}
		ref := apsp.FloydWarshall(mutated)
		n := mutated.NumVertices()
		if applied.G.NumVertices() != n {
			t.Fatalf("applied oracle has %d vertices, mutated graph %d", applied.G.NumVertices(), n)
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if got, want := applied.Query(int32(u), int32(v)), ref[u*n+v]; got != want {
					t.Fatalf("d(%d,%d) = %v, reference %v\nscript: %v", u, v, got, want, script)
				}
			}
		}

		// Corrupt the script: every failure must be the typed sentinel and
		// must leave no partial result.
		bad := append(append([]apsp.Delta(nil), script...),
			apsp.Delta{Kind: apsp.DeltaDelete, Edge: int32(mutated.NumEdges() + 1000)})
		if o2, r2, err := base.ApplyDelta(ctx, bad); !errors.Is(err, apsp.ErrBadDelta) || o2 != nil || r2 != nil {
			t.Fatalf("corrupted script: oracle=%v result=%v err=%v, want ErrBadDelta", o2, r2, err)
		}
	})
}
