package mcb_test

import (
	"testing"

	"repro/internal/check"
	"repro/internal/graph"
	"repro/internal/mcb"
)

// TestFlatLabelsMatchDefinition runs the block kernel's check over
// the differential corpus, the shapes it under-represents (self-loops,
// parallel edges, more than one component, no cycle at all) and random
// graphs.
func TestFlatLabelsMatchDefinition(t *testing.T) {
	graphs := check.Corpus()
	graphs = append(graphs,
		check.NamedGraph{Name: "self-loops", G: graph.FromEdges(4, []graph.Edge{
			{U: 0, V: 0, W: 2}, {U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 0, W: 1}, {U: 2, V: 2, W: 7}})},
		check.NamedGraph{Name: "parallel-edges", G: graph.FromEdges(3, []graph.Edge{
			{U: 0, V: 1, W: 1}, {U: 0, V: 1, W: 4}, {U: 1, V: 2, W: 2}, {U: 1, V: 2, W: 2}, {U: 2, V: 0, W: 3}})},
		check.NamedGraph{Name: "disconnected", G: graph.FromEdges(7, []graph.Edge{
			{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}, {U: 2, V: 0, W: 3}, {U: 3, V: 4, W: 1}, {U: 4, V: 5, W: 1}, {U: 5, V: 3, W: 5}})},
		check.NamedGraph{Name: "lone-loop", G: graph.FromEdges(2, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 1, W: 5}})},
		check.NamedGraph{Name: "tree", G: graph.FromEdges(3, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}})},
	)
	for seed := uint64(1); seed <= 30; seed++ {
		graphs = append(graphs, check.NamedGraph{Name: "random", G: check.RandomGraph(seed, 14)})
	}
	for i, ng := range graphs {
		t.Run(ng.Name, func(t *testing.T) { mcb.CheckBlockKernel(t, ng.G, uint64(i+1)) })
	}
}

// FuzzLabelKernel is the same check behind check.DecodeGraph's total
// byte→graph map, seeded with the pathological corpus.
//
//	go test ./internal/mcb -run='^$' -fuzz=FuzzLabelKernel -fuzztime=30s
func FuzzLabelKernel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 0, 1, 3, 1, 1, 7}) // parallel edge + self-loop fragment
	for _, ng := range check.Corpus() {
		if data, err := check.EncodeGraph(ng.G, 24); err == nil {
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		mcb.CheckBlockKernel(t, check.DecodeGraph(data, 24, 64), 1)
	})
}
