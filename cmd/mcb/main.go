// Command mcb computes a minimum weight cycle basis of a graph file or a
// named synthetic dataset using the ear-decomposition De Pina algorithm.
//
//	mcb -file molecule.txt -print 5
//	mcb -dataset c-50 -scale 0.02 -platform cpu+gpu -no-ear
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/mcb"
	"repro/internal/par"
	"repro/internal/verify"
)

func main() {
	var (
		file     = flag.String("file", "", "graph file (.mtx, .gr, or edge list)")
		dataset  = flag.String("dataset", "", "named synthetic dataset")
		scale    = flag.Float64("scale", 0.02, "dataset scale")
		seed     = flag.Uint64("seed", 1, "dataset seed")
		workers  = flag.Int("workers", par.Workers(), "parallel workers")
		noEar    = flag.Bool("no-ear", false, "disable the ear-decomposition reduction")
		platform = flag.String("platform", "sequential", "virtual platform: sequential, multicore, gpu, cpu+gpu")
		printN   = flag.Int("print", 0, "print the N lightest basis cycles")
		check    = flag.Bool("verify", false, "certify basis structure and cross-check the weight with Horton's algorithm")
	)
	cli.SetUsage("mcb", "[-file graph | -dataset name] [flags]")
	flag.Parse()

	var p mcb.Platform
	switch *platform {
	case "sequential":
		p = mcb.Sequential
	case "multicore":
		p = mcb.Multicore
	case "gpu":
		p = mcb.GPU
	case "cpu+gpu", "hetero":
		p = mcb.Heterogeneous
	default:
		cli.BadUsage("mcb", "unknown platform %q", *platform)
	}

	g, name, err := cli.LoadInput(*file, *dataset, *scale, *seed)
	if err != nil {
		cli.Exit("mcb", err)
	}
	fmt.Printf("graph %s: %d vertices, %d edges, cycle space dimension %d\n",
		name, g.NumVertices(), g.NumEdges(), mcb.Dim(g))

	// Ctrl-C during a long basis build aborts it instead of leaving the
	// process stuck until the compute finishes.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	res, err := mcb.ComputeCtx(ctx, g, mcb.Options{
		UseEar:   !*noEar,
		Platform: p,
		Workers:  *workers,
		Seed:     *seed,
	})
	if err != nil {
		cli.Fatalf("mcb", "%v", err)
	}
	wall := time.Since(start)
	fmt.Printf("MCB: %d cycles, total weight %g\n", len(res.Cycles), res.TotalWeight)
	fmt.Printf("time: %v wall, %.4g virtual seconds on %s\n", wall, res.SimSeconds, p)
	fmt.Printf("phases (virtual): trees %.3g, labels %.3g, search %.3g, update %.3g\n",
		res.Phase.Tree, res.Phase.Label, res.Phase.Search, res.Phase.Update)
	fmt.Printf("roots %d, candidates %d (isometric filter pruned %d), nodes removed by ear reduction %d\n",
		res.NumRoots, res.NumCandidates, res.RejectedCandidates, res.NodesRemoved)

	if *check {
		if err := verify.CycleBasis(g, res); err != nil {
			cli.Fatalf("mcb", "VERIFICATION FAILED: %v", err)
		}
		horton := mcb.HortonMCB(g, false, *seed+7)
		if horton.TotalWeight != res.TotalWeight {
			cli.Fatalf("mcb", "VERIFICATION FAILED: Horton weight %g != De Pina weight %g",
				horton.TotalWeight, res.TotalWeight)
		}
		fmt.Println("verification: basis is independent, structurally valid, and Horton's algorithm agrees on the weight")
	}

	if *printN > 0 {
		cycles := res.SortedCycles()
		n := min(*printN, len(cycles))
		for i := 0; i < n; i++ {
			c := cycles[i]
			fmt.Printf("  cycle %d: weight %g, %d edges:", i, c.Weight, len(c.Edges))
			for _, eid := range c.Edges {
				e := g.Edge(eid)
				fmt.Printf(" (%d-%d)", e.U, e.V)
			}
			fmt.Println()
		}
	}
}
