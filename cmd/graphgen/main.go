// Command graphgen writes synthetic graphs to edge-list files: either a
// named Table 1 dataset stand-in or a raw generator family.
//
//	graphgen -dataset Wordnet3 -scale 0.05 -o wordnet3.txt
//	graphgen -family planar -n 5000 -o planar.txt
//	graphgen -family gnm -n 1000 -m 3000 -subdivide 0.5 -o chains.txt
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cli"
	"repro/internal/datasets"
	"repro/internal/gen"
	"repro/internal/graph"
)

func main() {
	var (
		dataset   = flag.String("dataset", "", "named Table 1 dataset")
		family    = flag.String("family", "", "raw family: gnm, geometric, pa, grid, planar, ring")
		n         = flag.Int("n", 1000, "vertices (raw families)")
		m         = flag.Int("m", 0, "edges (gnm; default 2n)")
		k         = flag.Int("k", 3, "attachment degree (pa)")
		avgDeg    = flag.Float64("avg-degree", 6, "average degree (geometric)")
		subdivide = flag.Float64("subdivide", 0, "fraction of edges to subdivide into degree-2 chains")
		chainLen  = flag.Int("chain-len", 2, "mean injected chain length")
		scale     = flag.Float64("scale", 0.05, "dataset scale")
		seed      = flag.Uint64("seed", 1, "generator seed")
		maxW      = flag.Int("max-weight", 100, "maximum integral edge weight")
		out       = flag.String("o", "", "output file (default stdout)")
		format    = flag.String("format", "", "output format: edgelist (default), dot, binary; inferred from -o extension (.dot, .earg) when empty")
	)
	cli.SetUsage("graphgen", "[-dataset name | -family fam] [flags]")
	flag.Parse()

	cfg := gen.Config{MaxWeight: *maxW}
	rng := gen.NewRNG(*seed)
	var g *graph.Graph
	switch {
	case *dataset != "":
		spec, err := datasets.ByName(*dataset)
		if err != nil {
			cli.BadUsage("graphgen", "%v", err)
		}
		g = spec.Generate(*scale, *seed)
	case *family != "":
		mm := *m
		if mm == 0 {
			mm = 2 * *n
		}
		switch *family {
		case "gnm":
			g = gen.GNM(*n, mm, cfg, rng)
		case "geometric":
			g = gen.RandomGeometric(*n, *avgDeg, cfg, rng)
		case "pa":
			g = gen.PreferentialAttachment(*n, *k, cfg, rng)
		case "grid":
			side := 1
			for side*side < *n {
				side++
			}
			g = gen.TriangulatedGrid(side, side, cfg, rng)
		case "planar":
			g = gen.PlanarEars(*n, 2, cfg, rng)
		case "ring":
			g = gen.Ring(*n, cfg, rng)
		default:
			cli.BadUsage("graphgen", "unknown family %q", *family)
		}
		if *subdivide > 0 {
			g = gen.Subdivide(g, *subdivide, *chainLen, cfg, rng)
		}
	default:
		cli.BadUsage("graphgen", "need -dataset or -family")
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			cli.Fatalf("graphgen", "%v", err)
		}
		defer f.Close()
		w = f
	}
	fm := *format
	if fm == "" {
		switch {
		case strings.HasSuffix(*out, ".dot"):
			fm = "dot"
		case strings.HasSuffix(*out, ".earg"):
			fm = "binary"
		default:
			fm = "edgelist"
		}
	}
	var err error
	switch fm {
	case "edgelist":
		err = graph.WriteEdgeList(w, g)
	case "dot":
		err = graph.WriteDOT(w, g)
	case "binary":
		err = graph.WriteBinary(w, g)
	default:
		cli.BadUsage("graphgen", "unknown format %q", fm)
	}
	if err != nil {
		cli.Fatalf("graphgen", "%v", err)
	}
	fmt.Fprintf(os.Stderr, "wrote %d vertices, %d edges (%s)\n", g.NumVertices(), g.NumEdges(), fm)
}
