package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/snapshot"
)

func TestBinaryRoundTrip(t *testing.T) {
	g := triangleWithTail()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatal("sizes differ")
	}
	for i, e := range g.Edges() {
		if g2.Edge(int32(i)) != e {
			t.Fatalf("edge %d differs", i)
		}
	}
}

func TestBinaryFileAndLoadFile(t *testing.T) {
	g := triangleWithTail()
	path := filepath.Join(t.TempDir(), "g.earg")
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadFile(path) // .earg routed to the binary reader
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatal("load file wrong")
	}
}

// TestLoadFileEdgeList: any other extension is read as a "u v w" edge list.
func TestLoadFileEdgeList(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := os.WriteFile(path, []byte("0 1 2\n1 2 3\n2 0 4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 || g.TotalWeight() != 9 {
		t.Fatalf("loaded %d vertices, %d edges, weight %v", g.NumVertices(), g.NumEdges(), g.TotalWeight())
	}
}

// oldEARGHeader is the 24-byte header of the retired hand-rolled layout
// ("EARG", version 1, n, m), whose reader allocated m×16 bytes before it
// read a single edge.
func oldEARGHeader(n, m uint64) []byte {
	b := append([]byte("EARG"), 1, 0, 0, 0)
	b = binary.LittleEndian.AppendUint64(b, n)
	return binary.LittleEndian.AppendUint64(b, m)
}

// sealGraph wraps a hand-written graph section in a checksum-valid
// container.
func sealGraph(t testing.TB, section func(*snapshot.Encoder)) []byte {
	t.Helper()
	sw := snapshot.NewWriter()
	section(sw.Section(binarySection))
	var buf bytes.Buffer
	if _, err := sw.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestBinaryRejectsGarbage(t *testing.T) {
	for _, bad := range []struct {
		name string
		data []byte
		want error
	}{
		{"foreign bytes", []byte("nope"), snapshot.ErrBadMagic},
		{"old layout", oldEARGHeader(3, 1<<31), snapshot.ErrBadMagic},
		{"endpoint out of range", sealGraph(t, func(e *snapshot.Encoder) {
			e.U64(2)
			e.U64(1)
			e.I32(0)
			e.I32(5)
			e.U64(math.Float64bits(1))
		}), snapshot.ErrCorrupt},
		{"edge count beyond the bytes", sealGraph(t, func(e *snapshot.Encoder) {
			e.U64(2)
			e.U64(1 << 31)
		}), snapshot.ErrCorrupt},
		{"bytes after the edges", sealGraph(t, func(e *snapshot.Encoder) {
			triangleWithTail().EncodeSnapshot(e)
			e.U32(0)
		}), snapshot.ErrCorrupt},
	} {
		if _, err := ReadBinary(bytes.NewReader(bad.data)); !errors.Is(err, bad.want) {
			t.Errorf("%s: err = %v, want %v", bad.name, err, bad.want)
		}
	}
	if _, err := ReadBinary(strings.NewReader("EARSNAPS")); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Errorf("truncated header: err = %v, want ErrCorrupt", err)
	}
}

// FuzzReadBinary: a .earg read is rejected with a snapshot sentinel, or
// yields a graph that writes and reads back bit for bit.
func FuzzReadBinary(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, triangleWithTail()); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	for _, cut := range []int{0, 8, 16, len(valid) / 2, len(valid) - 1} {
		f.Add(valid[:cut])
	}
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-3] ^= 0x10
	f.Add(flipped)
	f.Add(oldEARGHeader(5, 1<<31))

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, snapshot.ErrCorrupt) && !errors.Is(err, snapshot.ErrChecksum) &&
				!errors.Is(err, snapshot.ErrBadMagic) && !errors.Is(err, snapshot.ErrVersionSkew) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		var out bytes.Buffer
		if err := WriteBinary(&out, g); err != nil {
			t.Fatal(err)
		}
		h, err := ReadBinary(&out)
		if err != nil {
			t.Fatalf("re-read of an accepted graph: %v", err)
		}
		if g.NumVertices() != h.NumVertices() || g.NumEdges() != h.NumEdges() {
			t.Fatalf("shape changed: n=%d m=%d → n=%d m=%d", g.NumVertices(), g.NumEdges(), h.NumVertices(), h.NumEdges())
		}
		for i := int32(0); i < int32(g.NumEdges()); i++ {
			a, b := g.Edge(i), h.Edge(i)
			if a.U != b.U || a.V != b.V || math.Float64bits(a.W) != math.Float64bits(b.W) {
				t.Fatalf("edge %d changed: %+v → %+v", i, a, b)
			}
		}
	})
}
