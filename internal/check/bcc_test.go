package check

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/bcc"
	"repro/internal/datasets"
	"repro/internal/ear"
	"repro/internal/graph"
)

// schmidtCertificate certifies in linear time that dec is g's
// biconnected partition: ear.Decompose (Schmidt's chain decomposition)
// succeeds on every multi-edge block, so each block is biconnected, and
// the incidence between blocks and the vertices they touch is a forest,
// so no two blocks lie on a common cycle and none could be merged.
func schmidtCertificate(g *graph.Graph, dec *bcc.Decomposition) error {
	for b, sub := range dec.Subgraphs(g) {
		if sub.G.NumEdges() > 1 {
			if _, err := ear.Decompose(sub.G); err != nil {
				return fmt.Errorf("block %d (%d vertices, %d edges): %v", b, sub.G.NumVertices(), sub.G.NumEdges(), err)
			}
		}
	}
	// Union-find over block nodes [0, B) and vertex nodes [B, B+n): an
	// incidence edge joining two nodes already connected closes a cycle.
	numB := int32(len(dec.Components))
	parent := make([]int32, int(numB)+g.NumVertices())
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	last := make([]int32, g.NumVertices()) // the last block that touched v, plus one
	for b, comp := range dec.Components {
		for _, eid := range comp {
			e := g.Edge(eid)
			for _, v := range [2]int32{e.U, e.V} {
				if last[v] == int32(b)+1 {
					continue
				}
				last[v] = int32(b) + 1
				x, y := find(int32(b)), find(numB+v)
				if x == y {
					return fmt.Errorf("blocks through vertex %d close a cycle at block %d", v, b)
				}
				parent[x] = y
			}
		}
	}
	return nil
}

// TestBlocksCertifiedBySchmidt certifies bcc.Compute, the one source of
// every loaded partition, on the benchmark's blocks fixture
// (cond_mat_2003 at scale 0.25, seed 1), where BCCInvariants'
// O(n·(n+m)) brute force is out of reach. The certificate itself must
// refuse a triangle split into its edges and a path kept as one block.
func TestBlocksCertifiedBySchmidt(t *testing.T) {
	spec, err := datasets.ByName("cond_mat_2003")
	if err != nil {
		t.Fatal(err)
	}
	g := spec.Generate(0.25, 1)
	start := time.Now()
	dec := bcc.Compute(g)
	if err := schmidtCertificate(g, dec); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d blocks certified in %v", len(dec.Components), time.Since(start))
	if len(dec.Components) != 579 {
		t.Errorf("%d blocks, want 579", len(dec.Components))
	}

	triangle := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 0, W: 1}})
	path := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}})
	for _, c := range []struct {
		name string
		g    *graph.Graph
		dec  *bcc.Decomposition
	}{
		{"triangle split into its edges", triangle, &bcc.Decomposition{Components: [][]int32{{0}, {1}, {2}}}},
		{"path as one block", path, &bcc.Decomposition{Components: [][]int32{{0, 1}}}},
	} {
		if schmidtCertificate(c.g, c.dec) == nil {
			t.Errorf("%s: certified", c.name)
		}
	}
}
