package check

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"testing"

	"repro/internal/apsp"
	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/sssp"
	"repro/internal/verify"
)

// kernelGraphs is the corpus plus the shapes a heap's order among equal
// keys and a CSR's half-edge bookkeeping are most exposed to: self-loops,
// parallel edges of different weights, zero-weight plateaus, unreachable
// vertices and the one-vertex graph.
func kernelGraphs() []NamedGraph {
	out := Corpus()
	for seed := uint64(1); seed <= 12; seed++ {
		out = append(out, NamedGraph{fmt.Sprintf("random-%d", seed), RandomGraph(seed, 30)})
	}
	b := graph.NewBuilder(6)
	b.AddEdge(0, 0, 3)
	b.AddEdge(0, 1, 4)
	b.AddEdge(0, 1, 2)
	b.AddEdge(1, 1, 0)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 0, 9)
	b.AddEdge(4, 5, 1) // 3 is isolated, {4,5} unreachable from 0
	out = append(out, NamedGraph{"loops-and-parallels", b.Build()})

	// A 5×5 grid whose edges all weigh 0 except one column of 1s: every
	// vertex of a plateau has the same key.
	const k = 5
	p := graph.NewBuilder(k * k)
	for r := 0; r < k; r++ {
		for c := 0; c < k; c++ {
			v := int32(r*k + c)
			if c+1 < k {
				w := graph.Weight(0)
				if c == 2 {
					w = 1
				}
				p.AddEdge(v, v+1, w)
			}
			if r+1 < k {
				p.AddEdge(v, v+k, 0)
			}
		}
	}
	out = append(out, NamedGraph{"zero-plateaus", p.Build()})

	z := graph.NewBuilder(4)
	z.AddEdge(0, 1, 0)
	z.AddEdge(1, 2, 0)
	z.AddEdge(2, 3, 0)
	z.AddEdge(3, 0, 0)
	z.AddEdge(0, 2, 0)
	out = append(out, NamedGraph{"all-zero", z.Build()})
	out = append(out, NamedGraph{"one-vertex", graph.NewBuilder(1).Build()})
	return out
}

// TestSSSPKernels holds both heap kernels against Bellman–Ford from every
// source, with one Scratch reused across sources and graphs: identical
// distances, a relaxation count equal to the degree sum of the reached
// vertices, and for Dijkstra a parent forest whose root paths are real
// walks of exactly the reported length.
func TestSSSPKernels(t *testing.T) {
	sc := sssp.NewScratch(64)
	for _, ng := range kernelGraphs() {
		g := ng.G
		n := g.NumVertices()
		dist := make([]graph.Weight, n)
		for src := int32(0); src < int32(n); src++ {
			want := sssp.BellmanFord(g, src)
			var degSum int64
			for v, d := range want {
				if d < sssp.Inf {
					degSum += int64(g.Degree(int32(v)))
				}
			}
			relax := sssp.DistancesOnly(g, src, dist, sc)
			res := sssp.Dijkstra(g, src, sc)
			if relax != degSum || res.Relaxations != degSum {
				t.Fatalf("%s src %d: relaxations %d / %d, reached degree sum %d", ng.Name, src, relax, res.Relaxations, degSum)
			}
			for v := int32(0); v < int32(n); v++ {
				if dist[v] != want[v] || res.Dist[v] != want[v] {
					t.Fatalf("%s src %d: d(%d) = %v / %v, Bellman–Ford %v", ng.Name, src, v, dist[v], res.Dist[v], want[v])
				}
				p, pe := res.Parent[v], res.ParentEdge[v]
				if v == src || want[v] >= sssp.Inf {
					if p != -1 || pe != -1 {
						t.Fatalf("%s src %d: vertex %d has parent %d via %d", ng.Name, src, v, p, pe)
					}
					continue
				}
				if e := g.Edge(pe); !(e.U == p && e.V == v || e.U == v && e.V == p) || res.Dist[p]+e.W != res.Dist[v] {
					t.Fatalf("%s src %d: parent edge %d of %d does not close d(%d)+w = d(%d)", ng.Name, src, pe, v, p, v)
				}
				walk := []int32{v}
				for x := v; res.Parent[x] >= 0 && len(walk) <= n; x = res.Parent[x] {
					walk = append(walk, res.Parent[x])
				}
				for i, j := 0, len(walk)-1; i < j; i, j = i+1, j-1 {
					walk[i], walk[j] = walk[j], walk[i]
				}
				if walk[0] != src {
					t.Fatalf("%s src %d: parents of %d lead to %d", ng.Name, src, v, walk[0])
				}
				if err := verify.Walk(g, walk, want[v]); err != nil {
					t.Fatalf("%s src %d → %d: %v", ng.Name, src, v, err)
				}
			}
		}
	}
}

// fingerprint is the CRC-32C (Castagnoli) of the little-endian Float64bits
// of the AP table's a×a entries in row-major order — read through Query
// between cut vertices, whatever layout A is stored in — and of all n²
// Query results in u-major order.
func fingerprint(o *apsp.Oracle) (a, queries uint32) {
	tab := crc32.MakeTable(crc32.Castagnoli)
	var word [8]byte
	cuts := o.BCT.CutVertices
	for _, u := range cuts {
		for _, v := range cuts {
			binary.LittleEndian.PutUint64(word[:], math.Float64bits(o.Query(u, v)))
			a = crc32.Update(a, tab, word[:])
		}
	}
	n := int32(o.NumVertices())
	for u := int32(0); u < n; u++ {
		for v := int32(0); v < n; v++ {
			binary.LittleEndian.PutUint64(word[:], math.Float64bits(o.Query(u, v)))
			queries = crc32.Update(queries, tab, word[:])
		}
	}
	return a, queries
}

// TestDistanceFingerprint pins every distance the oracle serves on the
// benchmark's two cond_mat_2003 fixtures, and the work it took to build
// them. A change below the oracle — the heap, the CSR, the block-cut
// navigation — that claims "answers unchanged" is held to these constants;
// they move only with the dataset generator or the definition of a
// distance, never with how one is computed. relax counts the processing
// phase inside blocks only: every source's row-bounded search on G^r, its
// heap relaxations plus nr per finished row it merged (one min-plus update
// per target). It read 13 922 256 while the AP table was a Dijkstra per
// cut vertex over a clique-per-block graph (the 2 969 824 it lost are
// that table's, now a forest walk), 10 952 432 while every reduced source
// ran a Dijkstra on all of G^r, 9 630 371 while a fixed independent set
// was assembled over all its arcs and every other source searched all of
// G^r, and 3 388 301 while searches ran on G^r less the arcs finished
// rows proved non-essential and every row whose live neighbours were done
// was assembled over its live arcs.
func TestDistanceFingerprint(t *testing.T) {
	spec, err := datasets.ByName("cond_mat_2003")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name       string
		scale      float64
		a, queries uint32
		relax      int64
		long       bool
	}{
		{"blocks_m", 0.08, 0x96b9ad21, 0x2ac4bd88, 3479212, false},
		{"blocks", 0.25, 0x1d6a47cf, 0x2cd9294c, 43130133, true},
	} {
		if c.long && (testing.Short() || raceEnabled) {
			continue // 52 M queries
		}
		o := apsp.NewOracleParallel(spec.Generate(c.scale, 1), 2)
		a, q := fingerprint(o)
		if a != c.a || q != c.queries {
			t.Errorf("%s: A %08x, queries %08x; want %08x, %08x", c.name, a, q, c.a, c.queries)
		}
		if c.relax != 0 && o.Relaxations != c.relax {
			t.Errorf("%s: %d relaxations, want %d", c.name, o.Relaxations, c.relax)
		}
	}
}
