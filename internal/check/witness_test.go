package check

import (
	"testing"

	"repro/internal/apsp"
	"repro/internal/graph"
)

// corrupted wraps a correct oracle and deliberately misreports any finite
// distance greater than 5 — a label-independent bug, so it survives the
// witness compaction's relabelling. The minimal witness is any 6-edge
// unit-weight path.
type corrupted struct{ inner Oracle }

func (c corrupted) Query(u, v int32) graph.Weight {
	d := c.inner.Query(u, v)
	if d < apsp.Inf && d > 5 {
		return d - 1
	}
	return d
}

func TestBrokenOracleWitnessMinimisation(t *testing.T) {
	// A unit-weight path of 18 vertices: the end-to-end distance of 17
	// trips the corruption, and any subgraph that still trips it needs a
	// connected pair at distance ≥ 6 — i.e. at least six path edges —
	// which pins down the size of a minimal witness exactly.
	edges := []graph.Edge{}
	for i := int32(0); i < 17; i++ {
		edges = append(edges, graph.Edge{U: i, V: i + 1, W: 1})
	}
	g := graph.FromEdges(18, edges)

	broken := Impl{Name: "broken", Build: func(h *graph.Graph) Oracle {
		return corrupted{inner: apsp.NewOracle(h)}
	}}

	d := APSPAgainst(g, []Impl{broken}, true)
	if d == nil {
		t.Fatal("broken oracle not caught")
	}
	if d.Impl != "broken" {
		t.Fatalf("divergence attributed to %q", d.Impl)
	}
	if d.Got >= d.Want {
		t.Fatalf("corruption under-reports distances, got %v want %v", d.Got, d.Want)
	}
	if d.Witness == nil {
		t.Fatal("no witness produced")
	}
	// The minimal failing subgraph is a 6-edge path (distance 6 > 5); ddmin
	// guarantees local, not global, minimality, so allow a little slack —
	// but it must have discarded the chords and most of the spine.
	if d.Witness.NumEdges() < 6 || d.Witness.NumEdges() > 8 {
		t.Fatalf("witness has %d edges, want 6..8", d.Witness.NumEdges())
	}
	// The witness must reproduce the divergence on its own.
	w := corrupted{inner: apsp.NewOracle(d.Witness)}
	n := d.Witness.NumVertices()
	got := w.Query(d.WitnessU, d.WitnessV)
	want := apsp.FloydWarshall(d.Witness)[int(d.WitnessU)*n+int(d.WitnessV)]
	if got == want {
		t.Fatalf("witness does not reproduce: both give %v at (%d,%d)", got, d.WitnessU, d.WitnessV)
	}
	if got != d.WitnessGot || want != d.WitnessWant {
		t.Fatalf("witness pair values drifted: got %v/%v, recorded %v/%v", got, want, d.WitnessGot, d.WitnessWant)
	}
}

func TestMinimizeEdgesToCore(t *testing.T) {
	// The predicate fails iff both marked edges survive; ddmin must strip
	// everything else.
	var edges []graph.Edge
	for i := int32(0); i < 20; i++ {
		edges = append(edges, graph.Edge{U: i, V: i + 1, W: float64(i)})
	}
	isCore := func(e graph.Edge) bool { return e.W == 4 || e.W == 13 }
	fails := func(sub []graph.Edge) bool {
		count := 0
		for _, e := range sub {
			if isCore(e) {
				count++
			}
		}
		return count == 2
	}
	got := MinimizeEdges(edges, fails)
	if len(got) != 2 || !isCore(got[0]) || !isCore(got[1]) {
		t.Fatalf("minimised to %v, want exactly the two core edges", got)
	}
}

func TestMinimizeEdgesNoFailure(t *testing.T) {
	edges := []graph.Edge{{U: 0, V: 1, W: 1}}
	if got := MinimizeEdges(edges, func([]graph.Edge) bool { return false }); got != nil {
		t.Fatalf("expected nil for a passing predicate, got %v", got)
	}
}
