package exp

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"repro/internal/apsp"
	"repro/internal/datasets"
	"repro/internal/graph"
)

// APSPRow is one bar group of Figures 2 and 3: our ear-decomposition APSP
// against the matching baseline — Banerjee et al. for general graphs,
// Djidjev et al. for planar graphs (Section 2.4.3).
type APSPRow struct {
	Name     string
	Baseline string // "banerjee" or "djidjev"
	V, E     int

	OursSec, BaseSec     float64 // wall-clock seconds for the full APSP
	Speedup              float64
	OursMTEPS, BaseMTEPS float64

	// Work comparison (edge relaxations of the processing phases),
	// the machine-independent view of the same contrast.
	OursWork, BaseWork int64
}

// mteps is the paper's scalability metric: |E|·|V| / t / 1e6
// ("the ratio of the product of the number of edges and number of vertices
// over the time taken in seconds").
func mteps(v, e int, sec float64) float64 {
	if sec <= 0 {
		return 0
	}
	return float64(e) * float64(v) / sec / 1e6
}

// runOurs executes the paper's full APSP: oracle construction
// (preprocessing + processing) plus the post-processing sweep that streams
// every row through UPDATE_DISTANCE. The row buffer is reused so the
// workload measures computation, not allocation.
func runOurs(g *graph.Graph, workers int) (sec float64, work int64) {
	start := time.Now()
	o := apsp.NewOracleParallel(g, workers)
	StreamBlockRows(o)
	return time.Since(start).Seconds(), o.Relaxations
}

func runBanerjee(g *graph.Graph, workers int) (sec float64, work int64) {
	start := time.Now()
	o := apsp.NewBanerjee(g, workers)
	StreamBlockRows(o)
	return time.Since(start).Seconds(), o.Relaxations
}

// StreamBlockRows performs Stage 1 post-processing: for every biconnected
// component, extend the reduced table to all pairs of the component
// (the paper's A_i tables), writing into a reusable buffer.
func StreamBlockRows(o *apsp.Oracle) {
	var buf []graph.Weight
	for _, blk := range o.Blocks {
		n := blk.Sub.G.NumVertices()
		if n > len(buf) {
			buf = make([]graph.Weight, n)
		}
		for s := 0; s < n; s++ {
			blk.Ear.Row(int32(s), buf[:n])
		}
	}
}

func runDjidjev(g *graph.Graph, workers int) (sec float64, work int64) {
	n := g.NumVertices()
	k := n / 400
	if k < 4 {
		k = 4
	}
	if k > 64 {
		k = 64
	}
	start := time.Now()
	d := apsp.NewDjidjev(g, k, workers)
	buf := make([]graph.Weight, n)
	for s := 0; s < n; s++ {
		d.Row(int32(s), buf)
	}
	return time.Since(start).Seconds(), d.Relaxations
}

// RunAPSPComparison executes Figure 2/3's measurement for the given specs.
func RunAPSPComparison(specs []datasets.Spec, scale float64, seed uint64, workers int) []APSPRow {
	rows := make([]APSPRow, 0, len(specs))
	for _, spec := range specs {
		g := spec.Generate(scale, seed)
		row := APSPRow{Name: spec.Name, V: g.NumVertices(), E: g.NumEdges()}
		row.OursSec, row.OursWork = runOurs(g, workers)
		if spec.IsPlanar {
			row.Baseline = "djidjev"
			row.BaseSec, row.BaseWork = runDjidjev(g, workers)
		} else {
			row.Baseline = "banerjee"
			row.BaseSec, row.BaseWork = runBanerjee(g, workers)
		}
		if row.OursSec > 0 {
			row.Speedup = row.BaseSec / row.OursSec
		}
		row.OursMTEPS = mteps(row.V, row.E, row.OursSec)
		row.BaseMTEPS = mteps(row.V, row.E, row.BaseSec)
		rows = append(rows, row)
	}
	return rows
}

// WriteFig2 renders absolute APSP times and speedups (Figure 2).
func WriteFig2(w io.Writer, rows []APSPRow, scale float64) {
	fmt.Fprintf(w, "Figure 2 — APSP time, Our Approach vs baseline, scale %.3g\n", scale)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "graph\tbaseline\t|V|\t|E|\tours (s)\tbase (s)\tspeedup\tours work\tbase work\twork ratio")
	var sumGeneral, sumPlanar float64
	var nGeneral, nPlanar int
	for _, r := range rows {
		ratio := 0.0
		if r.OursWork > 0 {
			ratio = float64(r.BaseWork) / float64(r.OursWork)
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%.3f\t%.3f\t%.2fx\t%d\t%d\t%.2fx\n",
			r.Name, r.Baseline, r.V, r.E, r.OursSec, r.BaseSec, r.Speedup,
			r.OursWork, r.BaseWork, ratio)
		if r.Baseline == "djidjev" {
			sumPlanar += r.Speedup
			nPlanar++
		} else {
			sumGeneral += r.Speedup
			nGeneral++
		}
	}
	tw.Flush()
	if nGeneral > 0 {
		fmt.Fprintf(w, "average speedup vs Banerjee (general): %.2fx (paper: 1.7x)\n", sumGeneral/float64(nGeneral))
	}
	if nPlanar > 0 {
		fmt.Fprintf(w, "average speedup vs Djidjev (planar):   %.2fx (paper: 2.2x)\n", sumPlanar/float64(nPlanar))
	}
}

// WriteFig3 renders the MTEPS comparison (Figure 3).
func WriteFig3(w io.Writer, rows []APSPRow, scale float64) {
	fmt.Fprintf(w, "Figure 3 — MTEPS (|E|·|V|/t/1e6), scale %.3g\n", scale)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "graph\tbaseline\tours MTEPS\tbase MTEPS\tratio")
	for _, r := range rows {
		ratio := 0.0
		if r.BaseMTEPS > 0 {
			ratio = r.OursMTEPS / r.BaseMTEPS
		}
		fmt.Fprintf(tw, "%s\t%s\t%.1f\t%.1f\t%.2fx\n", r.Name, r.Baseline, r.OursMTEPS, r.BaseMTEPS, ratio)
	}
	tw.Flush()
}
