package graph

import (
	"io"
	"math"

	"repro/internal/snapshot"
)

// A .earg file is a snapshot container holding one "graph" section, the
// same encoding oracle snapshots embed: loading a generated graph skips
// text parsing and generator re-execution, with the container's CRC-64
// and a decoder that sizes the edge array by the bytes actually present.
const binarySection = "graph"

// WriteBinary serialises g as a .earg container.
func WriteBinary(w io.Writer, g *Graph) error {
	sw := snapshot.NewWriter()
	g.EncodeSnapshot(sw.Section(binarySection))
	_, err := sw.WriteTo(w)
	return err
}

// ReadBinary deserialises a .earg container written by WriteBinary. Every
// failure wraps one of snapshot's sentinels; a file in the retired
// hand-rolled "EARG" layout is snapshot.ErrBadMagic (regenerate it with
// cmd/graphgen).
func ReadBinary(r io.Reader) (*Graph, error) {
	sr, err := snapshot.NewReader(r)
	if err != nil {
		return nil, err
	}
	g, err := DecodeSnapshot(sr.Section(binarySection))
	if err != nil {
		return nil, sr.Close(err)
	}
	return g, nil
}

// EncodeSnapshot appends the graph to a snapshot section: vertex
// count, edge count, then the raw edge array. The CSR adjacency is not
// stored; FromEdges rebuilds it deterministically on decode.
func (g *Graph) EncodeSnapshot(e *snapshot.Encoder) {
	e.U64(uint64(g.n))
	e.U64(uint64(len(g.edges)))
	for _, ed := range g.edges {
		e.I32(ed.U)
		e.I32(ed.V)
		e.F64(ed.W)
	}
}

// DecodeSnapshot is EncodeSnapshot's inverse over a section that holds
// the graph alone, which it finishes. It validates endpoint ranges and
// weights, so a decoded graph satisfies every invariant a Builder-built
// one does; failures wrap snapshot.ErrCorrupt.
func DecodeSnapshot(d *snapshot.Decoder) (*Graph, error) {
	n := d.U64()
	m := d.Count(16) // u, v, w
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n > 1<<31 {
		return nil, snapshot.Corruptf("graph: %d vertices", n)
	}
	edges := make([]Edge, m)
	for i := range edges {
		u, v, w := d.I32(), d.I32(), d.F64()
		if err := d.Err(); err != nil {
			return nil, err
		}
		if u < 0 || uint64(u) >= n || v < 0 || uint64(v) >= n {
			return nil, snapshot.Corruptf("graph: edge %d endpoints (%d,%d) outside [0,%d)", i, u, v, n)
		}
		if w < 0 || math.IsNaN(w) {
			return nil, snapshot.Corruptf("graph: edge %d weight %v", i, w)
		}
		edges[i] = Edge{U: u, V: v, W: w}
	}
	// No byte bounds the vertex count that sizes the adjacency: the
	// section passes its checksum before n allocates anything.
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return FromEdges(int(n), edges), nil
}
