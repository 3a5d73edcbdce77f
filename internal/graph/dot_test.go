package graph

import (
	"bytes"
	"strings"
	"testing"
)

func TestWriteDOT(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1, 2)
	b.AddEdge(1, 2, 3)
	b.AddEdge(2, 0, 4)
	g := b.Build() // vertex 3 isolated
	var buf bytes.Buffer
	if err := WriteDOT(&buf, g); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"0 -- 1",
		"label=\"2\"",
		"  3;", // isolated vertex still present
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteDOTDefaults(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 1, 5)
	var buf bytes.Buffer
	if err := WriteDOT(&buf, b.Build()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "graph G {") {
		t.Fatal("graph name missing")
	}
}
