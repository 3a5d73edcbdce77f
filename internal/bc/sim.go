package bc

import (
	"repro/internal/graph"
	"repro/internal/hetero"
)

// Sim computes betweenness centrality under the simulated heterogeneous
// platform: one work-unit per source, big sources (by degree) toward the
// GPU end of the deque. It returns the result and the virtual schedule.
func Sim(g *graph.Graph, devices []*hetero.Device) (*Result, *hetero.Schedule) {
	n := g.NumVertices()
	st := newState(n)
	res := &Result{Scores: make([]float64, n)}
	units := make([]hetero.Unit, n)
	for s := 0; s < n; s++ {
		units[s] = hetero.Unit{ID: int32(s), Size: int64(g.Degree(int32(s)))}
	}
	sched := hetero.Run(units, devices, func(u hetero.Unit, d *hetero.Device) hetero.Cost {
		ops := st.source(g, u.ID, res.Scores)
		return hetero.Cost{Ops: ops, Launches: 1}
	})
	res.Relaxations = sched.TotalOps
	return res, sched
}
