package apsp

import (
	"repro/internal/bcc"
	"repro/internal/graph"
	"repro/internal/hetero"
	"repro/internal/sssp"
)

// NewEarAPSPSim runs the processing phase under the simulated
// heterogeneous platform: each reduced vertex is a work-unit, the CPU-side
// kernel is heap Dijkstra and the GPU-side kernel is the frontier sweep of
// Harish & Narayanan. It returns the APSP result and the virtual schedule.
func NewEarAPSPSim(g *graph.Graph, devices []*hetero.Device) (*EarAPSP, *hetero.Schedule) {
	a := newEarAPSP(g, nil)
	red := a.Red
	units := make([]hetero.Unit, a.nr)
	// Unit size estimate: degree of the source — larger-degree sources
	// start bigger frontiers (the deque sorts by this).
	for s := 0; s < a.nr; s++ {
		units[s] = hetero.Unit{ID: int32(s), Size: int64(red.R.Degree(int32(s)))}
	}
	sc := sssp.NewScratch(a.nr)
	sched := hetero.Run(units, devices, func(u hetero.Unit, d *hetero.Device) hetero.Cost {
		row := a.SR[int(u.ID)*a.nr : (int(u.ID)+1)*a.nr]
		if d.Big { // GPU-structured kernel
			res, sweeps := sssp.FrontierSweeps(red.R, u.ID)
			copy(row, res.Dist)
			return hetero.Cost{Ops: res.Relaxations, Launches: sweeps}
		}
		ops := sssp.DistancesOnly(red.R, u.ID, row, sc)
		return hetero.Cost{Ops: ops, Launches: 1}
	})
	a.Relaxations = sched.TotalOps
	return a, sched
}

// NewOracleSim builds the general-graph oracle with the processing phase
// scheduled on the simulated heterogeneous platform exactly as Section 2.3
// describes: "the workunits correspond to the processing with respect to
// each biconnected component of the graph ... sorted according to the size
// of the biconnected component ... so that the GPU starts accessing the
// bigger workunits". Each unit runs the full per-source sweep of one
// block's reduced graph — heap Dijkstra on the CPU side, the frontier
// kernel on the GPU side. It returns the oracle and the virtual schedule.
func NewOracleSim(g *graph.Graph, devices []*hetero.Device) (*Oracle, *hetero.Schedule) {
	dec := bcc.Compute(g)
	// Assembled with no block resident: the schedule, not block order,
	// decides when (and on which device) each block's tables get built.
	o, _ := assemble(g, dec, bcc.BuildBlockCutTree(g, dec), false, nil,
		func(int, *graph.Subgraph) (*EarAPSP, error) { return nil, nil })
	units := make([]hetero.Unit, len(o.Blocks))
	for i, blk := range o.Blocks {
		// Unit size: the block's edge count, the paper's sorting key.
		units[i] = hetero.Unit{ID: int32(i), Size: int64(blk.Sub.G.NumEdges())}
	}
	sched := hetero.Run(units, devices, func(u hetero.Unit, d *hetero.Device) hetero.Cost {
		blk := o.Blocks[u.ID]
		if d.Big {
			blk.Ear = newEarAPSPFrontier(blk.Sub.G)
			// frontier kernels: one launch per sweep, summed inside
			return hetero.Cost{Ops: blk.Ear.Relaxations, Launches: blk.Ear.sweeps}
		}
		blk.Ear = NewEarAPSP(blk.Sub.G)
		return hetero.Cost{Ops: blk.Ear.Relaxations, Launches: 1}
	})
	for _, blk := range o.Blocks {
		o.Relaxations += blk.Ear.Relaxations
	}
	o.buildAPTable()
	return o, sched
}

// PostProcessSim runs Phase III of Algorithm 1 (UPDATE_DISTANCE from every
// original vertex) as work-units on the simulated platform — the paper
// labels the post-processing {cpu,gpu} too. Rows are computed into a
// rotating buffer (the phase's output is consumed streamily by the
// harness), and each unit's cost is the table-operation count Row reports.
func (a *EarAPSP) PostProcessSim(devices []*hetero.Device) *hetero.Schedule {
	n := a.G.NumVertices()
	units := make([]hetero.Unit, n)
	for v := 0; v < n; v++ {
		units[v] = hetero.Unit{ID: int32(v), Size: int64(n)}
	}
	buf := make([]graph.Weight, n)
	return hetero.Run(units, devices, func(u hetero.Unit, d *hetero.Device) hetero.Cost {
		ops := a.Row(u.ID, buf)
		return hetero.Cost{Ops: ops, Launches: 1}
	})
}

// newEarAPSPFrontier is NewEarAPSP with the GPU-structured per-source
// kernel (Harish–Narayanan frontier relaxation) instead of heap Dijkstra,
// recording the total sweep count for launch accounting.
func newEarAPSPFrontier(g *graph.Graph) *EarAPSP {
	a := newEarAPSP(g, nil)
	for s := 0; s < a.nr; s++ {
		res, sweeps := sssp.FrontierSweeps(a.Red.R, int32(s))
		copy(a.SR[s*a.nr:(s+1)*a.nr], res.Dist)
		a.Relaxations += res.Relaxations
		a.sweeps += sweeps
	}
	return a
}
