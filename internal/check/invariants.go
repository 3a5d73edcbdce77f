package check

import (
	"fmt"

	"repro/internal/bcc"
	"repro/internal/ear"
	"repro/internal/graph"
)

// EarInvariants checks the structural contract of ear.Reduce on g in both
// modes:
//
//   - the decomposition's own Validate (chain prefix sums, edge coverage);
//   - KeptToOrig / OrigToKept are mutually inverse and removed vertices
//     carry chain coordinates;
//   - every removed vertex has degree 2, and every degree-2 vertex is
//     removed unless it is the designated anchor of an all-degree-2
//     (cycle) component;
//   - chain endpoints are kept vertices, interiors are removed;
//   - MCB mode: one reduced edge per chain with weight equal to the chain
//     sum, and the cycle space dimension m − n is preserved (Lemma 3.1);
//   - APSP mode: each reduced edge's weight equals its chain sum and is
//     minimal among the parallel chains joining the same kept endpoints,
//     and loop chains contribute no reduced edge.
func EarInvariants(g *graph.Graph) error {
	for _, mode := range []ear.Mode{ear.APSP, ear.MCB} {
		name := "apsp"
		if mode == ear.MCB {
			name = "mcb"
		}
		if err := earInvariantsMode(g, mode); err != nil {
			return fmt.Errorf("ear[%s]: %w", name, err)
		}
	}
	return nil
}

func earInvariantsMode(g *graph.Graph, mode ear.Mode) error {
	red := ear.Reduce(g, mode)
	if err := red.Validate(g); err != nil {
		return err
	}
	n := g.NumVertices()

	// Vertex maps are inverse bijections between kept originals and reduced
	// IDs; removed vertices have chain coordinates.
	for r, orig := range red.KeptToOrig {
		if red.OrigToKept[orig] != int32(r) {
			return fmt.Errorf("KeptToOrig[%d]=%d but OrigToKept[%d]=%d", r, orig, orig, red.OrigToKept[orig])
		}
	}
	for v := int32(0); v < int32(n); v++ {
		kept := red.OrigToKept[v] >= 0
		if kept {
			if red.ChainOf[v] >= 0 || red.PosOf[v] >= 0 {
				return fmt.Errorf("kept vertex %d has chain coordinates", v)
			}
			continue
		}
		if red.ChainOf[v] < 0 || red.PosOf[v] < 0 {
			return fmt.Errorf("removed vertex %d lacks chain coordinates", v)
		}
		if g.Degree(v) != 2 {
			return fmt.Errorf("removed vertex %d has degree %d, want 2", v, g.Degree(v))
		}
		if ci, p := red.ChainOf[v], red.PosOf[v]; int(ci) >= len(red.ChainA) || int(p) >= len(red.Interior) ||
			p < red.ChainStart[ci] || p >= red.ChainStart[ci+1] || red.Interior[p] != v {
			return fmt.Errorf("chain coordinates of %d do not point back at it", v)
		}
	}

	// Every degree-2 vertex is removed unless its whole component is
	// degree-2 (a simple cycle keeps one designated anchor).
	labels, _ := graph.ComponentLabels(g)
	allDeg2 := map[int32]bool{}
	for v := int32(0); v < int32(n); v++ {
		if _, seen := allDeg2[labels[v]]; !seen {
			allDeg2[labels[v]] = true
		}
		if g.Degree(v) != 2 {
			allDeg2[labels[v]] = false
		}
	}
	anchors := map[int32]int{} // kept degree-2 anchors per cycle component
	for v := int32(0); v < int32(n); v++ {
		if g.Degree(v) == 2 && red.OrigToKept[v] >= 0 {
			if !allDeg2[labels[v]] {
				return fmt.Errorf("degree-2 vertex %d kept outside a cycle component", v)
			}
			anchors[labels[v]]++
			if anchors[labels[v]] > 1 {
				return fmt.Errorf("cycle component %d keeps more than one anchor", labels[v])
			}
		}
	}

	// Chain endpoints kept. Interiors are removed: Validate holds them to
	// as many slots as there are removed vertices, and each one's
	// coordinates point back at it.
	for ci := range red.ChainA {
		if red.OrigToKept[red.ChainA[ci]] < 0 || red.OrigToKept[red.ChainB[ci]] < 0 {
			return fmt.Errorf("chain %d has removed endpoint", ci)
		}
	}

	// Reduced edges stand for chains with exact weights.
	for re := int32(0); re < int32(red.R.NumEdges()); re++ {
		a, b, total := chainOf(g, red, red.EdgeChain[re])
		e := red.R.Edge(re)
		if e.W != total {
			return fmt.Errorf("reduced edge %d weight %v, chain total %v", re, e.W, total)
		}
		ru, rv := red.OrigToKept[a], red.OrigToKept[b]
		if !((e.U == ru && e.V == rv) || (e.U == rv && e.V == ru)) {
			return fmt.Errorf("reduced edge %d endpoints (%d,%d) do not match chain (%d,%d)", re, e.U, e.V, ru, rv)
		}
	}

	switch mode {
	case ear.MCB:
		// Every chain becomes exactly one reduced edge; the cycle space
		// dimension m − n is preserved (Lemma 3.1: bases transfer 1:1).
		if red.R.NumEdges() != red.NumChains() {
			return fmt.Errorf("mcb reduction has %d edges for %d chains", red.R.NumEdges(), red.NumChains())
		}
		if red.R.NumEdges()-red.R.NumVertices() != g.NumEdges()-n {
			return fmt.Errorf("cycle space dimension changed: m'-n' = %d, m-n = %d",
				red.R.NumEdges()-red.R.NumVertices(), g.NumEdges()-n)
		}
	case ear.APSP:
		// The retained chain between each kept endpoint pair is the
		// cheapest of its parallel group, and no loop chains survive.
		// Every chain is one with an interior, or an edge with kept ends.
		cheapest := map[[2]int32]graph.Weight{}
		for ref := -int32(g.NumEdges()); ref < int32(len(red.ChainA)); ref++ {
			a, b, total := chainOf(g, red, ref)
			if a == b || red.OrigToKept[a] < 0 || red.OrigToKept[b] < 0 {
				continue // a loop, or no trivial chain
			}
			k := normPair(red.OrigToKept[a], red.OrigToKept[b])
			if w, ok := cheapest[k]; !ok || total < w {
				cheapest[k] = total
			}
		}
		if red.R.NumEdges() != len(cheapest) {
			return fmt.Errorf("apsp reduction has %d edges for %d endpoint pairs", red.R.NumEdges(), len(cheapest))
		}
		for re := int32(0); re < int32(red.R.NumEdges()); re++ {
			e := red.R.Edge(re)
			if e.U == e.V {
				return fmt.Errorf("apsp reduction kept loop edge %d", re)
			}
			if want := cheapest[normPair(e.U, e.V)]; e.W != want {
				return fmt.Errorf("apsp reduced edge %d weight %v, cheapest parallel chain %v", re, e.W, want)
			}
		}
	}
	return nil
}

// chainOf returns the anchors and total of the chain an EdgeChain entry
// names: chain ref of red's arrays, or the trivial chain of g's edge ^ref.
func chainOf(g *graph.Graph, red *ear.Reduced, ref int32) (a, b int32, total graph.Weight) {
	if ref >= 0 {
		return red.ChainA[ref], red.ChainB[ref], red.ChainTotal[ref]
	}
	e := g.Edge(^ref)
	return e.U, e.V, e.W
}

func normPair(u, v int32) [2]int32 {
	if u > v {
		u, v = v, u
	}
	return [2]int32{u, v}
}

// BCCInvariants checks the biconnected-component decomposition and
// block-cut tree of g against first principles:
//
//   - every edge belongs to exactly one component;
//   - the articulation flags match a brute-force recomputation (vertex v is
//     an articulation point iff deleting it disconnects its component);
//   - every multi-edge component is genuinely biconnected (connected, and
//     still connected after deleting any single vertex);
//   - the block-cut incidence structure is a forest, every cut vertex
//     touches ≥ 2 blocks, and every non-isolated vertex has a home block.
//
// The brute-force recomputations are O(n·(n+m)); the harness only feeds it
// the small graphs the differential tests use.
func BCCInvariants(g *graph.Graph) error {
	n := g.NumVertices()
	dec := bcc.Compute(g)

	seen := make([]int32, g.NumEdges())
	for i := range seen {
		seen[i] = -1
	}
	for ci, comp := range dec.Components {
		for _, eid := range comp {
			if seen[eid] >= 0 {
				return fmt.Errorf("bcc: edge %d in components %d and %d", eid, seen[eid], ci)
			}
			seen[eid] = int32(ci)
		}
	}
	for eid, ci := range seen {
		if ci < 0 {
			return fmt.Errorf("bcc: edge %d in no component", eid)
		}
	}

	baseComps := graph.CountComponents(g)
	for v := int32(0); v < int32(n); v++ {
		want := bruteArticulation(g, v, baseComps)
		if dec.IsArticulation[v] != want {
			return fmt.Errorf("bcc: IsArticulation[%d] = %v, brute force %v", v, dec.IsArticulation[v], want)
		}
	}

	for ci, comp := range dec.Components {
		if len(comp) < 2 {
			continue
		}
		sub := graph.InducedByEdges(g, comp)
		if graph.CountComponents(sub.G) != 1 {
			return fmt.Errorf("bcc: component %d is not connected", ci)
		}
		sn := sub.G.NumVertices()
		for v := int32(0); v < int32(sn); v++ {
			if deleteDisconnects(sub.G, v) {
				return fmt.Errorf("bcc: component %d has internal cut vertex %d (parent %d)",
					ci, v, sub.ToParentVertex[v])
			}
		}
	}

	bct := bcc.BuildBlockCutTree(g, dec)
	if !bct.IsTree() {
		return fmt.Errorf("bcc: block-cut incidence is not a forest")
	}
	for ci, blocks := range bct.CutBlocks {
		if len(blocks) < 2 {
			return fmt.Errorf("bcc: cut vertex %d (vertex %d) touches %d blocks", ci, bct.CutVertices[ci], len(blocks))
		}
	}
	for v := int32(0); v < int32(n); v++ {
		if g.Degree(v) > 0 && bct.BlockOf[v] < 0 {
			return fmt.Errorf("bcc: non-isolated vertex %d has no home block", v)
		}
	}
	return nil
}

// bruteArticulation decides by recomputation whether v is an articulation
// point: deleting it (and its incident edges) must strictly increase the
// component count over the baseline, after discounting the component v
// itself formed if it had no proper neighbour.
func bruteArticulation(g *graph.Graph, v int32, baseComps int) bool {
	proper := false
	g.Neighbors(v, func(u, _ int32) bool {
		if u != v {
			proper = true
			return false
		}
		return true
	})
	if !proper {
		return false
	}
	var edges []graph.Edge
	for _, e := range g.Edges() {
		if e.U != v && e.V != v {
			edges = append(edges, e)
		}
	}
	// Count components over the remaining n-1 vertices: v becomes isolated
	// in the rebuilt graph, so subtract its singleton. v's old component
	// contributes ≥ 1 piece; it split iff the count strictly exceeds the
	// baseline.
	h := graph.FromEdges(g.NumVertices(), edges)
	return graph.CountComponents(h)-1 > baseComps
}

// deleteDisconnects reports whether removing vertex v from connected graph
// g disconnects the remaining vertices (vacuously false for graphs with
// ≤ 2 vertices).
func deleteDisconnects(g *graph.Graph, v int32) bool {
	n := g.NumVertices()
	if n <= 2 {
		return false
	}
	var edges []graph.Edge
	for _, e := range g.Edges() {
		if e.U != v && e.V != v {
			edges = append(edges, e)
		}
	}
	h := graph.FromEdges(n, edges)
	// v is isolated in h; the rest must still form one component.
	return graph.CountComponents(h)-1 > 1
}
