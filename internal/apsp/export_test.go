package apsp

import (
	"context"

	"repro/internal/graph"
)

// FillSchedule runs the processing phase's fill on r at one worker for the
// external tests, returning the table, its Relaxations, the edges of r it
// proved to lie on no shortest path and the rows it assembled instead of
// searching.
func FillSchedule(r *graph.Graph) (sr []graph.Weight, relax int64, dead, assembledRows []bool) {
	nr := r.NumVertices()
	f := newFill(r, make([]graph.Weight, nr*nr))
	relax, _ = f.run(context.Background(), 1) // a background context never cancels
	assembledRows = make([]bool, nr)
	for s, st := range f.done {
		assembledRows[s] = st == assembled
	}
	return f.sr, relax, f.dead, assembledRows
}
