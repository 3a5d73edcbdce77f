package graph

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
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

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("nope")); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := ReadBinary(strings.NewReader("EARG")); err == nil {
		t.Fatal("truncated header accepted")
	}
	// corrupt an edge endpoint
	g := triangleWithTail()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)-16] = 0xFF // u of the last edge becomes huge/negative
	data[len(data)-15] = 0xFF
	data[len(data)-14] = 0xFF
	data[len(data)-13] = 0x7F
	if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
		t.Fatal("out-of-range endpoint accepted")
	}
}
