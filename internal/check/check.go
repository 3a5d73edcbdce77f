// Package check is the repository's differential-testing and
// invariant-checking subsystem. The paper's correctness claim is exact
// equivalence: every answer computed on the ear-reduced graph G^r (APSP
// Section 2, MCB Lemma 3.1) or through the block-cut decomposition
// (Section 2.2, betweenness) must equal the answer on G. This package turns
// that claim into reusable machinery:
//
//   - differential APSP: every oracle implementation is compared against an
//     independent Floyd–Warshall reference on the full pair set, and the
//     first divergence is shrunk to a minimised witness subgraph (delta
//     debugging over the edge list);
//   - differential MCB: De Pina on G^r versus brute-force Horton on G,
//     cross-certified with verify.CycleBasisMatches (dimension m − n + k,
//     unique basis weight);
//   - differential BC: the decomposed algorithm versus plain Brandes;
//   - structural invariants: ear decompositions cover every degree-2 chain
//     with weight-exact reduced edges, and BCC/block-cut-tree output matches
//     a brute-force recomputation.
//
// Everything is callable from any test, from the fuzz targets in this
// package, and from cmd tooling. All generation is seed-deterministic.
package check

import (
	"repro/internal/apsp"
	"repro/internal/exp"
	"repro/internal/graph"
)

// Oracle is any all-pairs distance oracle under test.
type Oracle interface {
	Query(u, v int32) graph.Weight
}

// Impl names one APSP implementation for the differential harness.
type Impl struct {
	Name string
	// Build constructs the oracle; it is re-invoked on every candidate
	// subgraph during witness minimisation.
	Build func(g *graph.Graph) Oracle
	// NeedsConnected marks implementations whose contract requires a
	// connected input (the bare apsp.EarAPSP, exp.Djidjev); the minimiser
	// skips disconnected candidates for them.
	NeedsConnected bool
}

// APSPImpls returns the implementations the differential harness compares:
// the paper's ear-reduced block-cut oracle, the Banerjee baseline (blocks
// without ear reduction), the flat per-source Dijkstra, and — for connected
// inputs — the bare EarAPSP and the Djidjev partition baseline of
// internal/exp. The reference they are all compared against
// (Floyd–Warshall) is a sixth, independent algorithm family.
func APSPImpls() []Impl {
	return []Impl{
		{Name: "oracle", Build: func(g *graph.Graph) Oracle { return apsp.NewOracle(g) }},
		{Name: "oracle-parallel", Build: func(g *graph.Graph) Oracle { return apsp.NewOracleParallel(g, 2) }},
		{Name: "banerjee", Build: func(g *graph.Graph) Oracle { return apsp.NewBanerjee(g, 1) }},
		{Name: "flat", Build: func(g *graph.Graph) Oracle { return apsp.NewFlatAPSP(g, 1) }},
		{Name: "ear", Build: func(g *graph.Graph) Oracle { return apsp.NewEarAPSP(g) }, NeedsConnected: true},
		{Name: "djidjev", Build: func(g *graph.Graph) Oracle { return exp.NewDjidjev(g, 4, 1) }, NeedsConnected: true},
	}
}
