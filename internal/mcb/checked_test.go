package mcb

import (
	"errors"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestCheckedAccessors(t *testing.T) {
	cfg := gen.Config{MaxWeight: 9}
	rng := gen.NewRNG(77)
	g := gen.Theta([]int{2, 3, 4}, cfg, rng)
	res := Compute(g, Options{UseEar: true})
	if res.Dim == 0 {
		t.Fatal("theta graph has no cycles?")
	}

	// Valid queries round-trip through the checked surface.
	for i := range res.Cycles {
		c, err := res.CycleChecked(g, i)
		if err != nil {
			t.Fatalf("CycleChecked(%d): %v", i, err)
		}
		seq, err := VertexSequenceChecked(g, c)
		if err != nil {
			t.Fatalf("VertexSequenceChecked(%d): %v", i, err)
		}
		if len(seq) != len(c.Edges) {
			t.Fatalf("cycle %d: %d vertices for %d edges", i, len(seq), len(c.Edges))
		}
	}

	// Invalid indices and IDs come back as wrapped sentinels, not panics.
	if _, err := res.CycleChecked(g, -1); !errors.Is(err, ErrCycleIndex) {
		t.Fatalf("CycleChecked(-1): %v", err)
	}
	if _, err := res.CycleChecked(g, len(res.Cycles)); !errors.Is(err, ErrCycleIndex) {
		t.Fatalf("CycleChecked(len): %v", err)
	}

	// Externally constructed garbage: out-of-range edge IDs are rejected
	// before any graph access.
	bogus := Cycle{Edges: []int32{0, int32(g.NumEdges())}, Weight: 1}
	if _, err := VertexSequenceChecked(g, bogus); !errors.Is(err, ErrEdgeRange) {
		t.Fatalf("VertexSequenceChecked(bogus edge): %v", err)
	}
	ext := &Result{Cycles: []Cycle{bogus}, Dim: 1}
	if _, err := ext.CycleChecked(g, 0); !errors.Is(err, ErrEdgeRange) {
		t.Fatalf("CycleChecked on garbage result: %v", err)
	}

	// A non-closed element (simple path) has no vertex sequence.
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	pg := b.Build()
	open := Cycle{Edges: []int32{0, 1}, Weight: 2}
	if _, err := VertexSequenceChecked(pg, open); !errors.Is(err, ErrNotClosedWalk) {
		t.Fatalf("VertexSequenceChecked(open walk): %v", err)
	}
}
