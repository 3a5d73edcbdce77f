package datasets

import (
	"testing"

	"repro/internal/apsp"
	"repro/internal/graph"
)

func TestAllSpecsGenerate(t *testing.T) {
	for _, spec := range Table1 {
		g := spec.Generate(0.02, 1)
		if g.NumVertices() < 50 {
			t.Fatalf("%s: too few vertices %d", spec.Name, g.NumVertices())
		}
		if c := graph.CountComponents(g); c != 1 {
			t.Fatalf("%s: generated graph is disconnected (%d components)", spec.Name, c)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	s, err := ByName("ca-AstroPh")
	if err != nil {
		t.Fatal(err)
	}
	g1 := s.Generate(0.02, 7)
	g2 := s.Generate(0.02, 7)
	if g1.NumVertices() != g2.NumVertices() || g1.NumEdges() != g2.NumEdges() {
		t.Fatalf("same seed produced different sizes")
	}
	for i, e := range g1.Edges() {
		e2 := g2.Edge(int32(i))
		if e != e2 {
			t.Fatalf("edge %d differs: %+v vs %+v", i, e, e2)
		}
	}
	g3 := s.Generate(0.02, 8)
	if g3.NumEdges() == g1.NumEdges() {
		// sizes may coincide, compare content
		same := true
		for i, e := range g1.Edges() {
			if g3.Edge(int32(i)) != e {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("different seeds produced identical graphs")
		}
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("no-such-dataset"); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
	names := Names()
	if len(names) != 15 {
		t.Fatalf("expected 15 datasets, got %d", len(names))
	}
	for _, n := range names {
		if _, err := ByName(n); err != nil {
			t.Fatalf("ByName(%q): %v", n, err)
		}
	}
}

// TestRemovedFractionTracksPaper verifies the headline structural property:
// datasets with a high published "Nodes Removed" percentage must produce
// graphs in which the ear reduction removes a correspondingly high
// fraction, and low-removal datasets must stay low.
func TestRemovedFractionTracksPaper(t *testing.T) {
	for _, name := range []string{"as-22july06", "c-50", "delaunay_n15", "nopoly", "Wordnet3"} {
		spec, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g := spec.Generate(0.03, 11)
		o := apsp.NewOracle(g)
		gotPct := 100 * float64(o.NodesRemoved()) / float64(g.NumVertices())
		want := spec.PaperRemovedPct
		// within 20 percentage points, and ordering preserved for the
		// extremes
		if want >= 50 && gotPct < 30 {
			t.Errorf("%s: paper removes %.1f%%, we remove only %.1f%%", name, want, gotPct)
		}
		if want <= 2 && gotPct > 15 {
			t.Errorf("%s: paper removes %.1f%%, we remove %.1f%%", name, want, gotPct)
		}
	}
}
