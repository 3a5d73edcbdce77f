package check

import (
	"encoding/binary"
	"hash/crc32"
	"testing"

	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/mcb"
)

// parallelWorkerCounts is the sweep the acceptance bar names: the
// sequential baseline plus a small and a large pool. MCBParallel always
// compares against Workers=1 internally, so listing 1 here additionally
// asserts the trivial self-comparison stays clean.
var parallelWorkerCounts = []int{1, 2, 8}

// awkwardGraphs are shapes the generator corpus under-represents but the
// parallel merge must still get right: disconnected components (per-BCC
// fan-out with empty pieces), self-loops (weight-0 candidate fast path),
// and parallel edges (two-edge cycles competing in the candidate scan).
func awkwardGraphs() []NamedGraph {
	return []NamedGraph{
		{"disconnected-triangles", graph.FromEdges(7, []graph.Edge{
			{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}, {U: 2, V: 0, W: 3},
			{U: 3, V: 4, W: 1}, {U: 4, V: 5, W: 1}, {U: 5, V: 3, W: 5},
			// vertex 6 is isolated
		})},
		{"self-loops", graph.FromEdges(4, []graph.Edge{
			{U: 0, V: 0, W: 2}, {U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1},
			{U: 2, V: 0, W: 1}, {U: 2, V: 2, W: 7},
		})},
		{"parallel-edges", graph.FromEdges(3, []graph.Edge{
			{U: 0, V: 1, W: 1}, {U: 0, V: 1, W: 4}, {U: 1, V: 2, W: 2},
			{U: 1, V: 2, W: 2}, {U: 2, V: 0, W: 3},
		})},
		{"lone-vertex", graph.FromEdges(1, nil)},
	}
}

func TestMCBParallelCorpus(t *testing.T) {
	for _, ng := range Corpus() {
		if err := MCBParallel(ng.G, 7, parallelWorkerCounts...); err != nil {
			t.Fatalf("%s: %v", ng.Name, err)
		}
	}
}

func TestMCBParallelAwkward(t *testing.T) {
	for _, ng := range awkwardGraphs() {
		if err := MCBParallel(ng.G, 7, parallelWorkerCounts...); err != nil {
			t.Fatalf("%s: %v", ng.Name, err)
		}
	}
}

func TestMCBParallelRandom(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		g := RandomGraph(seed, 14)
		if err := MCBParallel(g, seed, parallelWorkerCounts...); err != nil {
			t.Fatalf("seed %d (n=%d m=%d): %v", seed, g.NumVertices(), g.NumEdges(), err)
		}
	}
}

// TestMCBWorkFingerprint pins what the labelled search does on the
// benchmark's MCB instance (bench fixture cycles_s): the stage sizes, the
// work counters and every basis cycle's edge list, at the three worker
// counts. A change to the kernel that claims "no answer changes" is held
// to these constants; they move only with the dataset generator, the
// perturbation or the definition of an op, never with how a label or a
// product is computed.
func TestMCBWorkFingerprint(t *testing.T) {
	spec, err := datasets.ByName("as-22july06")
	if err != nil {
		t.Fatal(err)
	}
	g := spec.Generate(0.02, 1)
	for _, workers := range parallelWorkerCounts {
		res := mcb.Compute(g, mcb.Options{UseEar: true, Seed: 1, Workers: workers})
		crc := crc32.New(crc32.MakeTable(crc32.Castagnoli))
		for _, c := range res.Cycles {
			binary.Write(crc, binary.LittleEndian, int32(len(c.Edges)))
			binary.Write(crc, binary.LittleEndian, c.Edges)
		}
		type pin struct {
			dim, candidates, fallbacks     int
			labelOps, searchOps, updateOps int64
			cycles                         uint32
		}
		got := pin{res.Dim, res.NumCandidates, res.Fallbacks, res.LabelOps, res.SearchOps, res.UpdateOps, crc.Sum32()}
		want := pin{521, 17332, 0, 2888424, 2518402, 1219140, 0xbec4cdae}
		if got != want {
			t.Errorf("workers=%d: %+v, want %+v", workers, got, want)
		}
	}
}
