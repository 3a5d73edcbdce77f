package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/snapshot"
)

// Binary snapshot format for large generated graphs: a fixed header plus
// the raw edge array, little-endian. Loading a snapshot skips both text
// parsing and generator re-execution, which matters when the benchmark
// harness replays the same dataset many times.
//
// Layout: magic "EARG" | uint32 version | uint64 n | uint64 m |
// m × (int32 u, int32 v, float64 w).

const (
	binaryMagic   = "EARG"
	binaryVersion = 1
)

// WriteBinary serialises g.
func WriteBinary(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	hdr := make([]byte, 4+8+8)
	binary.LittleEndian.PutUint32(hdr[0:], binaryVersion)
	binary.LittleEndian.PutUint64(hdr[4:], uint64(g.NumVertices()))
	binary.LittleEndian.PutUint64(hdr[12:], uint64(g.NumEdges()))
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	rec := make([]byte, 4+4+8)
	for _, e := range g.Edges() {
		binary.LittleEndian.PutUint32(rec[0:], uint32(e.U))
		binary.LittleEndian.PutUint32(rec[4:], uint32(e.V))
		binary.LittleEndian.PutUint64(rec[8:], math.Float64bits(e.W))
		if _, err := bw.Write(rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary deserialises a snapshot written by WriteBinary.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("graph: binary header: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("graph: not a binary graph snapshot (magic %q)", magic)
	}
	hdr := make([]byte, 4+8+8)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("graph: binary header: %w", err)
	}
	if v := binary.LittleEndian.Uint32(hdr[0:]); v != binaryVersion {
		return nil, fmt.Errorf("graph: unsupported snapshot version %d", v)
	}
	n := binary.LittleEndian.Uint64(hdr[4:])
	m := binary.LittleEndian.Uint64(hdr[12:])
	if n > 1<<31 || m > 1<<31 {
		return nil, fmt.Errorf("graph: snapshot too large (n=%d m=%d)", n, m)
	}
	edges := make([]Edge, m)
	rec := make([]byte, 16)
	for i := range edges {
		if _, err := io.ReadFull(br, rec); err != nil {
			return nil, fmt.Errorf("graph: edge %d: %w", i, err)
		}
		u := int32(binary.LittleEndian.Uint32(rec[0:]))
		v := int32(binary.LittleEndian.Uint32(rec[4:]))
		w := math.Float64frombits(binary.LittleEndian.Uint64(rec[8:]))
		if u < 0 || uint64(u) >= n || v < 0 || uint64(v) >= n {
			return nil, fmt.Errorf("graph: edge %d endpoints out of range", i)
		}
		if w < 0 || math.IsNaN(w) {
			return nil, fmt.Errorf("graph: edge %d has invalid weight %v", i, w)
		}
		edges[i] = Edge{U: u, V: v, W: w}
	}
	return FromEdges(int(n), edges), nil
}

// EncodeSnapshot appends the graph to an oracle-snapshot section: vertex
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

// DecodeSnapshot is EncodeSnapshot's inverse. It validates endpoint
// ranges and weights, so a decoded graph satisfies every invariant a
// Builder-built one does; failures wrap snapshot.ErrCorrupt.
func DecodeSnapshot(d *snapshot.Decoder) (*Graph, error) {
	n := d.U64()
	m := d.U64()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n > 1<<31 {
		return nil, snapshot.Corruptf("graph: %d vertices", n)
	}
	if m > uint64(d.Remaining())/16 {
		return nil, snapshot.Corruptf("graph: %d edges in %d bytes", m, d.Remaining())
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
	return FromEdges(int(n), edges), nil
}
