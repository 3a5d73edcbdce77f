package exp

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"repro/internal/datasets"
	"repro/internal/mcb"
)

// MCBRow is one row of Table 2: the MCB runtime of the four
// implementations (sequential, multicore, GPU, CPU+GPU), each with and
// without ear decomposition, on one dataset. Sim values are virtual-clock
// seconds, one solve priced on every platform (mcb.Result.Price); Wall
// values are real seconds of that solve.
type MCBRow struct {
	Name string
	V, E int

	SimWith    map[mcb.Platform]float64
	SimWithout map[mcb.Platform]float64
	WallWith   time.Duration
	WallNoEar  time.Duration

	// PhaseWith is the heterogeneous phase breakdown with ear
	// decomposition (for the Section 3.5 percentages).
	PhaseWith mcb.PhaseBreakdown

	Weight       float64 // MCB weight (identical with and without ear)
	Dim          int
	NodesRemoved int
}

var platforms = []mcb.Platform{mcb.Sequential, mcb.Multicore, mcb.GPU, mcb.Heterogeneous}

// RunMCB runs the Table 2 measurement on the given specs (the paper uses
// the first seven Table 1 graphs).
func RunMCB(specs []datasets.Spec, scale float64, seed uint64, workers int) ([]MCBRow, error) {
	rows := make([]MCBRow, 0, len(specs))
	for _, spec := range specs {
		g := spec.Generate(scale, seed)
		row := MCBRow{Name: spec.Name, V: g.NumVertices(), E: g.NumEdges()}

		start := time.Now()
		with := mcb.Compute(g, mcb.Options{
			UseEar: true, Platform: mcb.Heterogeneous,
			Workers: workers, Seed: seed + 1,
		})
		row.WallWith = time.Since(start)

		start = time.Now()
		without := mcb.Compute(g, mcb.Options{
			UseEar: false, Platform: mcb.Heterogeneous,
			Workers: workers, Seed: seed + 2,
		})
		row.WallNoEar = time.Since(start)

		if with.TotalWeight != without.TotalWeight {
			return nil, fmt.Errorf("%s: MCB weight differs with (%v) vs without (%v) ear decomposition",
				spec.Name, with.TotalWeight, without.TotalWeight)
		}
		row.SimWith = priceAll(with)
		row.SimWithout = priceAll(without)
		row.PhaseWith = with.Phase
		row.Weight = with.TotalWeight
		row.Dim = with.Dim
		row.NodesRemoved = with.NodesRemoved
		rows = append(rows, row)
	}
	return rows, nil
}

// priceAll prices one solve on each of the four platforms.
func priceAll(res *mcb.Result) map[mcb.Platform]float64 {
	sim := make(map[mcb.Platform]float64, len(platforms))
	for _, p := range platforms {
		sim[p] = res.Price(p).Total()
	}
	return sim
}

// WriteTable2 renders the Table 2 analogue.
func WriteTable2(w io.Writer, rows []MCBRow, scale float64) {
	fmt.Fprintf(w, "Table 2 — MCB time (virtual seconds), w = with / wo = without ear decomposition, scale %.3g\n", scale)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "graph\t|V|\t|E|\tdim\tseq w\tseq wo\tmc w\tmc wo\tgpu w\tgpu wo\tcpu+gpu w\tcpu+gpu wo")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d", r.Name, r.V, r.E, r.Dim)
		for _, p := range platforms {
			fmt.Fprintf(tw, "\t%.4g\t%.4g", r.SimWith[p], r.SimWithout[p])
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	// ear-decomposition speedup per implementation (the paper reports
	// 3.1x / 2.7x / 2.5x / 2.7x averages)
	fmt.Fprintln(w, "ear-decomposition speedup (wo/w) per implementation:")
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "graph\tseq\tmulticore\tgpu\tcpu+gpu\tremoved")
	avg := make([]float64, len(platforms))
	for _, r := range rows {
		fmt.Fprintf(tw, "%s", r.Name)
		for pi, p := range platforms {
			sp := 0.0
			if r.SimWith[p] > 0 {
				sp = r.SimWithout[p] / r.SimWith[p]
			}
			avg[pi] += sp
			fmt.Fprintf(tw, "\t%.2fx", sp)
		}
		fmt.Fprintf(tw, "\t%d\n", r.NodesRemoved)
	}
	tw.Flush()
	fmt.Fprintf(w, "average: ")
	for pi, p := range platforms {
		fmt.Fprintf(w, "%s %.2fx  ", p, avg[pi]/float64(len(rows)))
	}
	fmt.Fprintln(w, "(paper: seq 3.1x, mc 2.7x, gpu 2.5x, cpu+gpu 2.7x)")
}

// WriteFig5 renders the platform speedups over sequential (Figure 5; paper
// averages: multicore 3x, GPU 9x, CPU+GPU 11x).
func WriteFig5(w io.Writer, rows []MCBRow, scale float64) {
	fmt.Fprintf(w, "Figure 5 — MCB speedup over sequential (with ear decomposition), scale %.3g\n", scale)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "graph\tmulticore\tgpu\tcpu+gpu")
	var sums [3]float64
	for _, r := range rows {
		seq := r.SimWith[mcb.Sequential]
		fmt.Fprintf(tw, "%s", r.Name)
		for i, p := range []mcb.Platform{mcb.Multicore, mcb.GPU, mcb.Heterogeneous} {
			sp := 0.0
			if r.SimWith[p] > 0 {
				sp = seq / r.SimWith[p]
			}
			sums[i] += sp
			fmt.Fprintf(tw, "\t%.2fx", sp)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	n := float64(len(rows))
	fmt.Fprintf(w, "average: multicore %.1fx, gpu %.1fx, cpu+gpu %.1fx (paper: 3x, 9x, 11x)\n",
		sums[0]/n, sums[1]/n, sums[2]/n)
}

// WriteFig6 renders the absolute runtimes of the four implementations
// (Figure 6).
func WriteFig6(w io.Writer, rows []MCBRow, scale float64) {
	fmt.Fprintf(w, "Figure 6 — absolute MCB time per implementation (virtual seconds, with ear), scale %.3g\n", scale)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "graph\tsequential\tmulticore\tgpu\tcpu+gpu\twall (one run)")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s", r.Name)
		for _, p := range platforms {
			fmt.Fprintf(tw, "\t%.4g", r.SimWith[p])
		}
		fmt.Fprintf(tw, "\t%.3fs\n", r.WallWith.Seconds())
	}
	tw.Flush()
}

// WritePhases renders the Section 3.5 phase breakdown (paper: labels 76%,
// min-cycle search 14%, independence test 8%).
func WritePhases(w io.Writer, rows []MCBRow, scale float64) {
	fmt.Fprintf(w, "Section 3.5 — phase share of MCB runtime (heterogeneous, with ear), scale %.3g\n", scale)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "graph\ttrees\tlabels\tsearch\tupdate")
	for _, r := range rows {
		total := r.PhaseWith.Total()
		if total <= 0 {
			continue
		}
		fmt.Fprintf(tw, "%s\t%.1f%%\t%.1f%%\t%.1f%%\t%.1f%%\n", r.Name,
			100*r.PhaseWith.Tree/total,
			100*r.PhaseWith.Label/total,
			100*r.PhaseWith.Search/total,
			100*r.PhaseWith.Update/total)
	}
	tw.Flush()
	fmt.Fprintln(w, "(paper: labels 76%, search 14%, update 8%)")
}

// MCBSpecs returns the first seven Table 1 datasets, the ones the paper's
// MCB experiments use (Section 3.5).
func MCBSpecs() []datasets.Spec {
	return datasets.Table1[:7]
}
