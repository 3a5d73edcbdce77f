// Command apsp computes all-pairs shortest paths on a graph file or a
// named synthetic dataset using the ear-decomposition algorithm, and
// optionally compares it against the baselines.
//
//	apsp -file road.gr -query 0,17 -query 4,2
//	apsp -dataset as-22july06 -scale 0.05 -summary
//	apsp -dataset Planar_3 -compare
//	apsp -file road.gr -snapshot oracle.snap   # persist the oracle for oracled -load-snapshot
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/apsp"
	"repro/internal/cli"
	"repro/internal/datasets"
	"repro/internal/exp"
	"repro/internal/par"
	"repro/internal/snapshot"
	"repro/internal/verify"
)

type queryList []string

func (q *queryList) String() string     { return strings.Join(*q, ";") }
func (q *queryList) Set(s string) error { *q = append(*q, s); return nil }

func main() {
	var (
		file      = flag.String("file", "", "graph file (.mtx, .gr, or edge list)")
		dataset   = flag.String("dataset", "", "named synthetic dataset (see -list)")
		list      = flag.Bool("list", false, "list dataset names and exit")
		scale     = flag.Float64("scale", 0.03, "dataset scale")
		seed      = flag.Uint64("seed", 1, "dataset seed")
		workers   = flag.Int("workers", par.Workers(), "parallel workers")
		summary   = flag.Bool("summary", false, "print structural and memory summary")
		compare   = flag.Bool("compare", false, "also run the Banerjee baseline and report the speedup")
		check     = flag.Bool("verify", false, "cross-check the oracle against reference Bellman–Ford from 10 sources")
		analytics = flag.Bool("analytics", false, "compute eccentricities, diameter, radius and Wiener index")
		snapOut   = flag.String("snapshot", "", "write the built oracle to an oracle snapshot file (for oracled -load-snapshot)")
		queries   queryList
	)
	var paths queryList
	flag.Var(&queries, "query", "distance query \"u,v\" (repeatable)")
	flag.Var(&paths, "path", "route query \"u,v\": print the actual shortest path (repeatable)")
	cli.SetUsage("apsp", "[-file graph | -dataset name] [flags]")
	flag.Parse()

	if *list {
		for _, n := range datasets.Names() {
			fmt.Println(n)
		}
		return
	}
	g, name, err := cli.LoadInput(*file, *dataset, *scale, *seed)
	if err != nil {
		cli.Exit("apsp", err)
	}
	fmt.Printf("graph %s: %d vertices, %d edges\n", name, g.NumVertices(), g.NumEdges())

	start := time.Now()
	o := apsp.NewOracleParallel(g, *workers)
	build := time.Since(start)
	mem := o.Memory()
	oursB, maxB := mem.Bytes()
	fmt.Printf("oracle built in %v: %d blocks, %d articulation points, %d nodes removed by ear reduction\n",
		build, len(o.Blocks), o.NumArticulation(), o.NodesRemoved())
	held, kinds := o.TableBytes()
	fmt.Printf("memory: %.1f MB (paper model a²+Σnᵢ²) vs %.1f MB dense; %d entries stored (upper triangles of A and each S^r) in %.1f MB: %v tables\n",
		float64(oursB)/(1<<20), float64(maxB)/(1<<20), o.ReducedMemory(), float64(held)/(1<<20), kinds)

	if *snapOut != "" {
		n, err := writeSnapshot(*snapOut, o)
		if err != nil {
			cli.Fatalf("apsp", "write snapshot: %v", err)
		}
		fmt.Printf("oracle snapshot: %s (%d bytes)\n", *snapOut, n)
	}
	if *check {
		if err := verify.OracleSample(g, o, 10); err != nil {
			cli.Fatalf("apsp", "VERIFICATION FAILED: %v", err)
		}
		fmt.Println("verification: oracle matches reference Bellman–Ford from 10 sources")
	}
	if *summary {
		s := exp.AnalyzeStructure(g)
		fmt.Printf("structure: %d BCCs, largest %.2f%% of edges, %.2f%% vertices removable\n",
			s.BCCs, s.LargestPct, s.RemovedPct)
	}
	if *analytics {
		a := apsp.ComputeAnalytics(o, *workers)
		fmt.Printf("analytics: diameter %g (between %d and %d), radius %g, |center| %d, Wiener index %g\n",
			a.Diameter, a.DiameterEndpoints[0], a.DiameterEndpoints[1],
			a.Radius, len(a.Center), a.WienerIndex)
	}
	if *compare {
		start = time.Now()
		b := apsp.NewBanerjee(g, *workers)
		bBuild := time.Since(start)
		fmt.Printf("banerjee baseline built in %v (%.2fx ours); processing work %d vs %d relaxations (%.2fx)\n",
			bBuild, bBuild.Seconds()/build.Seconds(),
			b.Relaxations, o.Relaxations, float64(b.Relaxations)/float64(o.Relaxations))
	}
	for _, q := range queries {
		u, v, err := parsePair(q, g.NumVertices())
		if err != nil {
			cli.Exit("apsp", err)
		}
		d, err := o.QueryChecked(u, v)
		if err != nil {
			cli.Fatalf("apsp", "%v", err)
		}
		if d >= apsp.Inf {
			fmt.Printf("d(%d, %d) = unreachable\n", u, v)
		} else {
			fmt.Printf("d(%d, %d) = %g\n", u, v, d)
		}
	}
	for _, q := range paths {
		u, v, err := parsePair(q, g.NumVertices())
		if err != nil {
			cli.Exit("apsp", err)
		}
		w, err := o.PathChecked(u, v)
		if err != nil {
			cli.Fatalf("apsp", "%v", err)
		}
		if w == nil {
			fmt.Printf("path(%d, %d): unreachable\n", u, v)
			continue
		}
		d := o.Query(u, v)
		if err := verify.Walk(g, w, d); err != nil {
			cli.Fatalf("apsp", "path verification failed: %v", err)
		}
		fmt.Printf("path(%d, %d) = %v (weight %g)\n", u, v, w, d)
	}
}

// writeSnapshot persists the oracle for oracled -load-snapshot, returning
// the byte count written.
func writeSnapshot(path string, o *apsp.Oracle) (n int64, err error) {
	err = snapshot.WriteFile(path, func(f *os.File) (werr error) {
		n, werr = o.WriteTo(f)
		return werr
	})
	return n, err
}

func parsePair(q string, n int) (int32, int32, error) {
	parts := strings.SplitN(q, ",", 2)
	if len(parts) != 2 {
		return 0, 0, cli.Usagef("bad pair %q (want \"u,v\")", q)
	}
	u, err1 := strconv.Atoi(strings.TrimSpace(parts[0]))
	v, err2 := strconv.Atoi(strings.TrimSpace(parts[1]))
	if err1 != nil || err2 != nil || u < 0 || v < 0 || u >= n || v >= n {
		return 0, 0, cli.Usagef("bad pair %q", q)
	}
	return int32(u), int32(v), nil
}
