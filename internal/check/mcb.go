package check

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/mcb"
	"repro/internal/verify"
)

// MCB differentially tests the minimum-cycle-basis pipeline on g:
//
//   - De Pina on the ear-reduced graph (the paper's algorithm, Lemma 3.1),
//   - De Pina without ear reduction (the ablation arm), and
//   - brute-force Horton on G (the independent historical oracle)
//
// must all produce structurally valid bases of dimension m − n + k with the
// same (unique) total weight, certified through verify.CycleBasisMatches.
// It returns nil when all three agree.
//
// g must have integral edge weights: the engines' tie-breaking perturbation
// stays below 0.5 per cycle, which only guarantees minimality under the
// original weights when those are integers — exactly what every generator
// in this package produces.
func MCB(g *graph.Graph, seed uint64) error {
	if seed == 0 {
		seed = 1
	}
	want := mcb.Dim(g)
	depinaEar := mcb.Compute(g, mcb.Options{UseEar: true, Seed: seed})
	depina := mcb.Compute(g, mcb.Options{UseEar: false, Seed: seed})
	horton := mcb.HortonMCB(g, false, seed)
	if depinaEar.Dim != want {
		return fmt.Errorf("check: depina+ear dim %d, want m-n+k = %d", depinaEar.Dim, want)
	}
	if err := verify.CycleBasisMatches(g, depinaEar, horton); err != nil {
		return fmt.Errorf("check: depina+ear vs horton: %w", err)
	}
	if err := verify.CycleBasisMatches(g, depinaEar, depina); err != nil {
		return fmt.Errorf("check: depina+ear vs depina: %w", err)
	}
	return nil
}

// MCBParallel checks that the parallel MCB pipeline is bit-identical to the
// sequential one: for every worker count in workers, the basis (dimension,
// total weight, cycle count, and each cycle's weight and exact edge slice,
// in order) and the per-phase work counters must equal the Workers=1 run.
// Both the ear-reduced and the unreduced arm are swept, since they exercise
// different component structure. This is stronger than weight equality —
// the determinism argument (fixed merge order, earliest-hit scan, per-unit
// witness ownership) promises the same bytes, so the test demands them.
func MCBParallel(g *graph.Graph, seed uint64, workers ...int) error {
	if seed == 0 {
		seed = 1
	}
	if len(workers) == 0 {
		workers = []int{2, 8}
	}
	for _, useEar := range []bool{true, false} {
		seq := mcb.Compute(g, mcb.Options{UseEar: useEar, Seed: seed, Workers: 1})
		for _, w := range workers {
			par := mcb.Compute(g, mcb.Options{UseEar: useEar, Seed: seed, Workers: w})
			if err := sameBasis(seq, par); err != nil {
				return fmt.Errorf("check: ear=%v workers=%d vs sequential: %w", useEar, w, err)
			}
		}
	}
	return nil
}

// sameBasis demands bitwise equality of two MCB results: same dimension,
// weight, cycles in the same order with the same edge IDs, and the same
// work counters.
func sameBasis(a, b *mcb.Result) error {
	if a.Dim != b.Dim {
		return fmt.Errorf("dim %d != %d", a.Dim, b.Dim)
	}
	if a.TotalWeight != b.TotalWeight {
		return fmt.Errorf("total weight %g != %g", a.TotalWeight, b.TotalWeight)
	}
	if len(a.Cycles) != len(b.Cycles) {
		return fmt.Errorf("cycle count %d != %d", len(a.Cycles), len(b.Cycles))
	}
	for i := range a.Cycles {
		ca, cb := a.Cycles[i], b.Cycles[i]
		if ca.Weight != cb.Weight {
			return fmt.Errorf("cycle %d weight %g != %g", i, ca.Weight, cb.Weight)
		}
		if len(ca.Edges) != len(cb.Edges) {
			return fmt.Errorf("cycle %d has %d edges vs %d", i, len(ca.Edges), len(cb.Edges))
		}
		for j := range ca.Edges {
			if ca.Edges[j] != cb.Edges[j] {
				return fmt.Errorf("cycle %d edge %d: id %d != %d", i, j, ca.Edges[j], cb.Edges[j])
			}
		}
	}
	if a.TreeOps != b.TreeOps || a.LabelOps != b.LabelOps ||
		a.SearchOps != b.SearchOps || a.UpdateOps != b.UpdateOps {
		return fmt.Errorf("work counters (tree %d/%d, label %d/%d, search %d/%d, update %d/%d) differ",
			a.TreeOps, b.TreeOps, a.LabelOps, b.LabelOps, a.SearchOps, b.SearchOps, a.UpdateOps, b.UpdateOps)
	}
	return nil
}
