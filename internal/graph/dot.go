package graph

import (
	"bufio"
	"fmt"
	"io"
)

// WriteDOT renders g in Graphviz DOT format for quick visual inspection
// of small graphs (dot -Tsvg graph.dot > graph.svg): every edge labelled
// with its weight, isolated vertices listed so they are drawn.
func WriteDOT(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "graph G {\n")
	fmt.Fprintf(bw, "  node [shape=circle fontsize=10];\n")
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		if g.Degree(v) == 0 {
			fmt.Fprintf(bw, "  %d;\n", v)
		}
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(bw, "  %d -- %d [label=\"%g\"];\n", e.U, e.V, e.W)
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}
