package apsp

import "fmt"

// CheckInvariants audits the oracle's internal structure: the BCC edge
// partition, block graphs and vertex lists, table sizes, the rooted forest,
// and the AP table. It exists for the delta machinery — an incorrect
// incremental update should fail loudly here (and in the differential
// harness) rather than answer queries subtly wrong. It is read-only and
// cheap relative to a build: O(n + m + a²).
func (o *Oracle) CheckInvariants() error {
	n := o.G.NumVertices()
	m := o.G.NumEdges()

	// The components are an exact edge partition.
	if len(o.Dec.Components) != len(o.Blocks) {
		return fmt.Errorf("apsp: %d components but %d blocks", len(o.Dec.Components), len(o.Blocks))
	}
	seen := make([]bool, m)
	covered := 0
	for bi, comp := range o.Dec.Components {
		for _, eid := range comp {
			if eid < 0 || int(eid) >= m {
				return fmt.Errorf("apsp: component %d references edge %d of %d", bi, eid, m)
			}
			if seen[eid] {
				return fmt.Errorf("apsp: edge %d in two components", eid)
			}
			seen[eid] = true
			covered++
		}
	}
	if covered != m {
		return fmt.Errorf("apsp: components cover %d of %d edges", covered, m)
	}
	if len(o.Dec.IsArticulation) != n {
		return fmt.Errorf("apsp: %d articulation flags for %d vertices", len(o.Dec.IsArticulation), n)
	}

	// Block-cut tree maps are sized and in range.
	if len(o.BCT.CutVertices) != o.numA {
		return fmt.Errorf("apsp: %d cut vertices, numA=%d", len(o.BCT.CutVertices), o.numA)
	}
	if len(o.BCT.BlockOf) != n || len(o.BCT.CutIndex) != n {
		return fmt.Errorf("apsp: BlockOf/CutIndex sized %d/%d for %d vertices",
			len(o.BCT.BlockOf), len(o.BCT.CutIndex), n)
	}
	for v := 0; v < n; v++ {
		if b := o.BCT.BlockOf[v]; int(b) >= len(o.Blocks) {
			return fmt.Errorf("apsp: vertex %d in block %d of %d", v, b, len(o.Blocks))
		}
		if ci := o.BCT.CutIndex[v]; int(ci) >= o.numA {
			return fmt.Errorf("apsp: vertex %d cut index %d of %d", v, ci, o.numA)
		}
	}

	// The vertex index is the inverse of the block vertex lists.
	if o.loc == nil || len(o.loc.home) != n {
		return fmt.Errorf("apsp: vertex index missing or not sized for %d vertices", n)
	}
	if len(o.BCT.BlockVerts) != len(o.Blocks) {
		return fmt.Errorf("apsp: %d block vertex lists for %d blocks", len(o.BCT.BlockVerts), len(o.Blocks))
	}
	entries := len(o.loc.ov)
	for _, l := range o.loc.home {
		if l >= 0 {
			entries++
		}
	}
	for bi, verts := range o.BCT.BlockVerts {
		entries -= len(verts)
		for local, parent := range verts {
			if got := o.loc.local(int32(bi), parent); got != int32(local) {
				return fmt.Errorf("apsp: block %d local index disagrees at parent vertex %d", bi, parent)
			}
		}
	}
	if entries != 0 {
		return fmt.Errorf("apsp: vertex index holds %d memberships the block vertex lists do not", entries)
	}

	// Per block: its graph is its component over its vertex list, and the
	// tables match the reduction.
	for bi, blk := range o.Blocks {
		if blk == nil {
			return fmt.Errorf("apsp: block %d has no tables", bi)
		}
		if bg := blk.Red.Original; bg.NumEdges() != len(o.Dec.Components[bi]) || bg.NumVertices() != len(o.BCT.BlockVerts[bi]) {
			return fmt.Errorf("apsp: block %d graph has %d vertices and %d edges for %d and %d",
				bi, bg.NumVertices(), bg.NumEdges(), len(o.BCT.BlockVerts[bi]), len(o.Dec.Components[bi]))
		}
		nr := blk.Red.R.NumVertices()
		if blk.nr != nr || blk.sr.len() != triLen(nr) {
			return fmt.Errorf("apsp: block %d has %d S^r entries for nr=%d", bi, blk.sr.len(), nr)
		}
	}

	// Rooted forest invariants — exactly what lca/ancestorAtDepth rely on.
	nn := len(o.Blocks) + o.numA
	if len(o.nodeParent) != nn || len(o.nodeDepth) != nn || len(o.nodeRoot) != nn {
		return fmt.Errorf("apsp: forest arrays sized %d/%d/%d for %d nodes",
			len(o.nodeParent), len(o.nodeDepth), len(o.nodeRoot), nn)
	}
	for v := 0; v < nn; v++ {
		p := o.nodeParent[v]
		switch {
		case p < 0:
			if o.nodeDepth[v] != 0 || o.nodeRoot[v] != int32(v) {
				return fmt.Errorf("apsp: forest root %d has depth %d root %d", v, o.nodeDepth[v], o.nodeRoot[v])
			}
		case int(p) >= nn:
			return fmt.Errorf("apsp: forest node %d parent %d of %d", v, p, nn)
		default:
			if o.nodeDepth[v] != o.nodeDepth[p]+1 || o.nodeRoot[v] != o.nodeRoot[p] {
				return fmt.Errorf("apsp: forest node %d inconsistent with parent %d", v, p)
			}
		}
	}
	if o.upLevels == 0 || len(o.up) != o.upLevels*nn {
		return fmt.Errorf("apsp: lifting table missing or mis-sized (%d entries for %d levels × %d nodes)",
			len(o.up), o.upLevels, nn)
	}

	// AP table: the a×a upper triangle, zero diagonal.
	if o.apTab.len() != triLen(o.numA) {
		return fmt.Errorf("apsp: AP table has %d entries for a=%d", o.apTab.len(), o.numA)
	}
	for i := range int32(o.numA) {
		if d := o.ap(i, i); d != 0 {
			return fmt.Errorf("apsp: AP table diagonal %d is %v", i, d)
		}
	}
	return nil
}
