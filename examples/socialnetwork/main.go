// Social network example: heterogeneous betweenness centrality.
//
// The paper closes by arguing its ear/heterogeneous machinery extends to
// other path-based computations; the authors' companion work applies it to
// betweenness centrality. This example builds a scale-free "collaboration
// network" (preferential attachment, like ca-AstroPh in Table 1), finds
// the most central members with exact Brandes, and compares the virtual
// runtimes of the four platform configurations for the same computation.
package main

import (
	"fmt"
	"time"

	"repro/internal/bc"
	"repro/internal/exp"
	"repro/internal/gen"
	"repro/internal/hetero"
)

func main() {
	cfg := gen.Config{MaxWeight: 1} // hop-count centrality
	rng := gen.NewRNG(404)
	g := gen.PreferentialAttachment(1500, 2, cfg, rng)
	fmt.Printf("network: %d members, %d ties\n", g.NumVertices(), g.NumEdges())

	start := time.Now()
	res := bc.Parallel(g, 0)
	fmt.Printf("exact betweenness computed in %v (%d relaxations)\n",
		time.Since(start), res.Relaxations)

	fmt.Println("most central members (bridges between communities):")
	for rank, v := range res.TopK(5) {
		fmt.Printf("  #%d member %4d: centrality %.0f, degree %d\n",
			rank+1, v, res.Scores[v]/2, g.Degree(v))
	}

	fmt.Println("\nvirtual platform comparison (same computation):")
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
		fmt.Printf("  %-11s %8.4f virtual s  (%.2fx)\n", c.name, sched.Makespan, seq/sched.Makespan)
	}
}
