// Heterogeneous scheduling example: the paper's dynamic work queue and the
// simulated CPU/GPU platform on their own, without the graph algorithms.
//
// It creates a skewed bag of work-units (per-source Dijkstra instances on
// a reduced graph — some frontiers are far heavier than others), then
// drains the same bag four ways: one CPU core, the 20-core CPU, the GPU,
// and CPU+GPU through the double-ended queue. The output shows how the
// deque gives the GPU the big units and the CPU the small ones, and how
// the virtual makespans compare.
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/ear"
	"repro/internal/gen"
	"repro/internal/hetero"
	"repro/internal/sssp"
)

func main() {
	cfg := gen.Config{MaxWeight: 20}
	rng := gen.NewRNG(7)
	// A sparse graph with chains: the reduced graph is the workload.
	g := gen.Subdivide(gen.PreferentialAttachment(3000, 2, cfg, rng), 0.5, 3, cfg, rng)
	red := ear.Reduce(g, ear.APSP)
	r := red.R
	fmt.Printf("workload: %d per-source Dijkstra units on the reduced graph (%d vertices, %d edges)\n",
		r.NumVertices(), r.NumVertices(), r.NumEdges())

	units := make([]hetero.Unit, r.NumVertices())
	for s := range units {
		units[s] = hetero.Unit{ID: int32(s), Size: int64(r.Degree(int32(s)))}
	}
	dist := make([]float64, r.NumVertices())
	sc := sssp.NewScratch(r.NumVertices())

	exec := func(u hetero.Unit, d *hetero.Device) hetero.Cost {
		if d.Big { // GPU side runs the frontier-structured kernel
			res, sweeps := sssp.FrontierSweeps(r, u.ID)
			return hetero.Cost{Ops: res.Relaxations, Launches: sweeps}
		}
		return hetero.Cost{Ops: sssp.DistancesOnly(r, u.ID, dist, sc), Launches: 1}
	}
	run := func(name string, devices []*hetero.Device) *hetero.Schedule {
		sched := hetero.Run(units, devices, exec)
		fmt.Printf("%-22s makespan %8.4f s", name, sched.Makespan)
		printDevices(os.Stdout, sched, devices)
		return sched
	}

	seq := run("sequential (1 core)", []*hetero.Device{hetero.SequentialCPU()})
	mc := run("multicore (20 cores)", []*hetero.Device{hetero.MulticoreCPU()})
	gpu := run("gpu (K40c model)", []*hetero.Device{hetero.TeslaK40c()})
	het := run("cpu+gpu (work queue)", []*hetero.Device{hetero.MulticoreCPU(), hetero.TeslaK40c()})

	fmt.Printf("\nspeedups over sequential: multicore %.2fx, gpu %.2fx, cpu+gpu %.2fx\n",
		seq.Makespan/mc.Makespan, seq.Makespan/gpu.Makespan, seq.Makespan/het.Makespan)
	fmt.Println("(compare the paper's Figure 5 averages: 3x, 9x, 11x at full dataset scale)")

	// Gantt view of the heterogeneous schedule: the GPU row chews the big
	// end of the queue while the 20 CPU slots drain the small end.
	fmt.Println("\nheterogeneous schedule (traced):")
	devs := []*hetero.Device{hetero.MulticoreCPU(), hetero.TeslaK40c()}
	tr := hetero.RunTraced(units, devs, exec)
	if err := tr.WriteGantt(os.Stdout, 72); err != nil {
		fmt.Println("gantt:", err)
	}
	printUtilization(os.Stdout, tr, devs)
}

// printDevices ends a schedule's line with each device's units and busy
// time, and printUtilization writes a line per device: both in the order
// of devices, since ranging over the schedule's per-device maps would
// print them in an order Go leaves unspecified.
func printDevices(w io.Writer, sched *hetero.Schedule, devices []*hetero.Device) {
	for _, d := range devices {
		fmt.Fprintf(w, "  [%s: %d units, %.4fs busy]", d.Name, sched.UnitsByDevice[d.Name], sched.BusyByDevice[d.Name])
	}
	fmt.Fprintln(w)
}

func printUtilization(w io.Writer, tr *hetero.Trace, devices []*hetero.Device) {
	util := tr.Utilization(devices)
	for _, d := range devices {
		fmt.Fprintf(w, "utilization %-9s %.0f%%\n", d.Name, 100*util[d.Name])
	}
}
