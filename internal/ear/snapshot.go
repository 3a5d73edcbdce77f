package ear

import (
	"repro/internal/graph"
	"repro/internal/snapshot"
)

// Snapshot hooks: a Reduced is persisted as its kept-vertex map, chain
// records, and reduced-edge→chain map. Everything else — the inverse
// vertex map, per-vertex chain positions, prefix distances, chain totals,
// and the reduced graph R itself — is derived on decode by the same
// arithmetic Reduce performs (left-to-right weight sums over the original
// edges, reduced edges emitted in EdgeChain order), so a decoded Reduced
// is field-for-field identical to the one that was encoded, including
// float bit patterns.

// EncodeSnapshot appends the reduced structure to a snapshot section. The
// Original graph is not encoded; the caller owns it and passes it back to
// DecodeReduced.
func (r *Reduced) EncodeSnapshot(e *snapshot.Encoder) {
	e.I32s(r.KeptToOrig)
	e.U64(uint64(len(r.Chains)))
	for ci := range r.Chains {
		c := &r.Chains[ci]
		e.I32(c.A)
		e.I32(c.B)
		e.I32s(c.Interior)
		e.I32s(c.Edges)
	}
	e.I32s(r.EdgeChain)
}

// DecodeReduced is EncodeSnapshot's inverse over the given original
// graph. Every index is range-checked before use and the reconstructed
// structure passes Validate (chain coverage, prefix sums), so corrupt
// payloads surface as errors wrapping snapshot.ErrCorrupt, never panics.
func DecodeReduced(d *snapshot.Decoder, original *graph.Graph) (*Reduced, error) {
	n := original.NumVertices()
	r := &Reduced{
		Original:   original,
		KeptToOrig: d.I32s(),
		OrigToKept: make([]int32, n),
		ChainOf:    make([]int32, n),
		PosOf:      make([]int32, n),
	}
	for i := range r.OrigToKept {
		r.OrigToKept[i], r.ChainOf[i], r.PosOf[i] = -1, -1, -1
	}
	for k, v := range r.KeptToOrig {
		if v < 0 || int(v) >= n {
			return nil, snapshot.Corruptf("ear: kept vertex %d outside [0,%d)", v, n)
		}
		if r.OrigToKept[v] >= 0 {
			return nil, snapshot.Corruptf("ear: vertex %d kept twice", v)
		}
		r.OrigToKept[v] = int32(k)
	}
	nch := d.Count(24) // A + B + two slice length prefixes
	if err := d.Err(); err != nil {
		return nil, err
	}
	// Reduce's layout: every chain's slices are windows of three arrays.
	removed, m := n-len(r.KeptToOrig), original.NumEdges()
	interior, edges, prefix := make([]int32, 0, removed), make([]int32, 0, m), make([]graph.Weight, 0, removed)
	r.Chains = make([]Chain, nch)
	for ci := range r.Chains {
		c := &r.Chains[ci]
		c.A = d.I32()
		c.B = d.I32()
		i0, e0 := len(interior), len(edges)
		interior = d.AppendI32s(interior)
		edges = d.AppendI32s(edges)
		if err := d.Err(); err != nil {
			return nil, err
		}
		c.Interior, c.Edges = interior[i0:len(interior):len(interior)], edges[e0:len(edges):len(edges)]
		if c.A < 0 || int(c.A) >= n || c.B < 0 || int(c.B) >= n {
			return nil, snapshot.Corruptf("ear: chain %d endpoints (%d,%d)", ci, c.A, c.B)
		}
		if r.OrigToKept[c.A] < 0 || r.OrigToKept[c.B] < 0 {
			return nil, snapshot.Corruptf("ear: chain %d anchored at removed vertex", ci)
		}
		if len(c.Edges) != len(c.Interior)+1 {
			return nil, snapshot.Corruptf("ear: chain %d has %d edges for %d interior vertices",
				ci, len(c.Edges), len(c.Interior))
		}
		for _, eid := range c.Edges {
			if eid < 0 || int(eid) >= m {
				return nil, snapshot.Corruptf("ear: chain %d edge id %d", ci, eid)
			}
		}
		// Derive prefix distances and the total exactly as Reduce does:
		// a left-to-right running sum over the chain's edge weights.
		w := original.Edge(c.Edges[0]).W
		for i, iv := range c.Interior {
			if iv < 0 || int(iv) >= n {
				return nil, snapshot.Corruptf("ear: chain %d interior vertex %d", ci, iv)
			}
			if r.OrigToKept[iv] >= 0 || r.ChainOf[iv] >= 0 {
				return nil, snapshot.Corruptf("ear: interior vertex %d kept or reused", iv)
			}
			r.ChainOf[iv] = int32(ci)
			r.PosOf[iv] = int32(i)
			prefix = append(prefix, w)
			w += original.Edge(c.Edges[i+1]).W
		}
		c.Prefix, c.Total = prefix[len(prefix)-len(c.Interior):len(prefix):len(prefix)], w
	}
	r.EdgeChain = d.I32s()
	if err := d.Err(); err != nil {
		return nil, err
	}
	// Rebuild R: one edge per selected chain, in EdgeChain order, exactly
	// as Reduce emits them.
	redges := make([]graph.Edge, len(r.EdgeChain))
	for i, ci := range r.EdgeChain {
		if ci < 0 || int(ci) >= len(r.Chains) {
			return nil, snapshot.Corruptf("ear: edge-chain index %d of %d chains", ci, len(r.Chains))
		}
		c := &r.Chains[ci]
		redges[i] = graph.Edge{U: r.OrigToKept[c.A], V: r.OrigToKept[c.B], W: c.Total}
	}
	r.R = graph.FromEdges(len(r.KeptToOrig), redges)
	if err := r.Validate(); err != nil {
		return nil, snapshot.Corruptf("ear: decoded structure invalid: %v", err)
	}
	return r, nil
}
