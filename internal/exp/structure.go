// Package exp is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (Table 1, Figures 2 and 3 for APSP,
// Table 2 and Figures 5 and 6 for MCB, and the Section 3.5 phase
// breakdown) on the synthetic dataset stand-ins, reporting paper values
// side by side with measured ones.
package exp

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/bcc"
	"repro/internal/datasets"
	"repro/internal/ear"
	"repro/internal/graph"
)

// Structure is the structural profile of a graph under the paper's
// preprocessing: the Table 1 columns.
type Structure struct {
	V, E         int
	BCCs         int
	LargestPct   float64 // largest BCC's share of |E|, percent
	RemovedPct   float64 // vertices removed by ear reduction, percent
	Articulation int
	// Memory model (4-byte distance entries, as in the paper):
	// OursEntries = a² + Σ n_i², MaxEntries = n².
	OursEntries, MaxEntries int64
	// ReducedEntries = a(a+1)/2 + Σ nr_i(nr_i+1)/2 — what this
	// implementation actually stores: reduced blocks only, and each
	// symmetric table as its upper triangle.
	ReducedEntries int64
}

// AnalyzeStructure computes the Table 1 columns without running any
// shortest path computation (decomposition and reduction only).
func AnalyzeStructure(g *graph.Graph) Structure {
	s := Structure{V: g.NumVertices(), E: g.NumEdges()}
	dec := bcc.Compute(g)
	s.BCCs = len(dec.Components)
	s.LargestPct = 100 * dec.LargestComponentEdgeShare(g.NumEdges())
	aps := dec.ArticulationPoints()
	s.Articulation = len(aps)
	a := int64(len(aps))
	s.OursEntries = a * a
	s.ReducedEntries = a * (a + 1) / 2
	removed := 0
	for _, sub := range dec.Subgraphs(g) {
		red := ear.Reduce(sub.G, ear.APSP)
		removed += red.NumRemoved()
		ni := int64(sub.G.NumVertices())
		nr := int64(red.R.NumVertices())
		s.OursEntries += ni * ni
		s.ReducedEntries += nr * (nr + 1) / 2
	}
	s.RemovedPct = 100 * float64(removed) / float64(maxi(1, g.NumVertices()))
	n := int64(g.NumVertices())
	s.MaxEntries = n * n
	return s
}

// Table1Row pairs a dataset's measured structure with the paper's values.
type Table1Row struct {
	Spec      datasets.Spec
	Structure Structure
}

// RunTable1 generates every Table 1 dataset at the given scale and
// analyses it.
func RunTable1(scale float64, seed uint64) []Table1Row {
	rows := make([]Table1Row, 0, len(datasets.Table1))
	for _, spec := range datasets.Table1 {
		g := spec.Generate(scale, seed)
		rows = append(rows, Table1Row{Spec: spec, Structure: AnalyzeStructure(g)})
	}
	return rows
}

// WriteTable1 renders the rows with paper reference values.
func WriteTable1(w io.Writer, rows []Table1Row, scale float64) {
	fmt.Fprintf(w, "Table 1 — dataset structure at scale %.3g (measured | paper)\n", scale)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "graph\t|V|\t|E|\t#BCCs\tlargest BCC %\tremoved %\tours MB\tmax MB")
	for _, r := range rows {
		s, p := r.Structure, r.Spec
		oursB, maxB := s.OursEntries*4, s.MaxEntries*4
		fmt.Fprintf(tw, "%s\t%d|%d\t%d|%d\t%d|%d\t%.2f|%.2f\t%.2f|%.2f\t%.1f|%d\t%.1f|%d\n",
			p.Name,
			s.V, p.PaperV,
			s.E, p.PaperE,
			s.BCCs, p.PaperBCCs,
			s.LargestPct, p.PaperLargestPct,
			s.RemovedPct, p.PaperRemovedPct,
			float64(oursB)/(1<<20), p.PaperOursMB,
			float64(maxB)/(1<<20), p.PaperMaxMB)
	}
	tw.Flush()
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}
