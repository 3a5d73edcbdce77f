// Command bc computes betweenness centrality on a graph file or named
// synthetic dataset, with the flat, block-decomposed, or sampled
// estimators.
//
//	bc -dataset ca-AstroPh -scale 0.05 -top 10
//	bc -file network.txt -method decomposed -top 5
//	bc -dataset soc-sign-epinions -scale 0.02 -method sampled -samples 200
package main

import (
	"flag"
	"fmt"
	"time"

	"repro/internal/bc"
	"repro/internal/cli"
	"repro/internal/exp"
	"repro/internal/hetero"
	"repro/internal/par"
)

func main() {
	var (
		file    = flag.String("file", "", "graph file (.mtx, .gr, .earg, or edge list)")
		dataset = flag.String("dataset", "", "named synthetic dataset")
		scale   = flag.Float64("scale", 0.03, "dataset scale")
		seed    = flag.Uint64("seed", 1, "dataset / sampling seed")
		workers = flag.Int("workers", par.Workers(), "parallel workers")
		method  = flag.String("method", "decomposed", "flat, decomposed, or sampled")
		samples = flag.Int("samples", 100, "sources for -method sampled")
		top     = flag.Int("top", 10, "print the top-K vertices")
		sim     = flag.Bool("sim", false, "also price the computation on the four virtual platforms")
	)
	cli.SetUsage("bc", "[-file graph | -dataset name] [flags]")
	flag.Parse()
	if *top < 0 {
		cli.BadUsage("bc", "-top %d: want a count of 0 or more", *top)
	}

	g, name, err := cli.LoadInput(*file, *dataset, *scale, *seed)
	if err != nil {
		cli.Exit("bc", err)
	}
	fmt.Printf("graph %s: %d vertices, %d edges\n", name, g.NumVertices(), g.NumEdges())

	start := time.Now()
	var res *bc.Result
	switch *method {
	case "flat":
		res = bc.Parallel(g, *workers)
	case "decomposed":
		res = bc.Decomposed(g, *workers)
	case "sampled":
		res = bc.Sampled(g, *samples, *seed, *workers)
	default:
		cli.BadUsage("bc", "unknown method %q", *method)
	}
	fmt.Printf("%s betweenness computed in %v (%d relaxations)\n",
		*method, time.Since(start), res.Relaxations)
	for rank, v := range res.TopK(*top) {
		fmt.Printf("  #%-3d vertex %6d  centrality %12.1f  degree %d\n",
			rank+1, v, res.Scores[v]/2, g.Degree(v))
	}

	if *sim {
		fmt.Println("virtual platforms:")
		configs := []struct {
			name string
			devs []*hetero.Device
		}{
			{"sequential", []*hetero.Device{hetero.SequentialCPU()}},
			{"multicore", []*hetero.Device{hetero.MulticoreCPU()}},
			{"gpu", []*hetero.Device{hetero.TeslaK40c()}},
			{"cpu+gpu", []*hetero.Device{hetero.MulticoreCPU(), hetero.TeslaK40c()}},
		}
		var seq float64
		for _, c := range configs {
			_, sched := exp.SimBC(g, c.devs)
			if c.name == "sequential" {
				seq = sched.Makespan
			}
			fmt.Printf("  %-11s %10.4f virtual s (%.2fx)\n", c.name, sched.Makespan, seq/sched.Makespan)
		}
	}
}
