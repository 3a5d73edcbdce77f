package check

import (
	"bytes"
	"context"
	"fmt"

	"repro/internal/apsp"
	"repro/internal/graph"
	"repro/internal/verify"
)

// pairPath exercises one (u, v) pair of the checked path surface and
// returns a descriptive error on any contract violation: a panic, an
// unexpected error, a broken walk, wrong endpoints, or a walk weight that
// disagrees with the queried distance.
func pairPath(g *graph.Graph, o *apsp.Oracle, u, v int32) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("pair (%d,%d): panic: %v", u, v, r)
		}
	}()
	d, qerr := o.QueryChecked(u, v)
	if qerr != nil {
		return fmt.Errorf("pair (%d,%d): QueryChecked: %v", u, v, qerr)
	}
	w, perr := o.PathChecked(u, v)
	if perr != nil {
		return fmt.Errorf("pair (%d,%d): PathChecked: %v", u, v, perr)
	}
	if d >= apsp.Inf {
		if w != nil {
			return fmt.Errorf("pair (%d,%d): unreachable but path %v returned", u, v, w)
		}
		return nil
	}
	if len(w) == 0 {
		return fmt.Errorf("pair (%d,%d): reachable (d=%v) but no path returned", u, v, d)
	}
	if w[0] != u || w[len(w)-1] != v {
		return fmt.Errorf("pair (%d,%d): walk endpoints %d..%d", u, v, w[0], w[len(w)-1])
	}
	if err := verify.Walk(g, w, d); err != nil {
		return fmt.Errorf("pair (%d,%d): %v", u, v, err)
	}
	return nil
}

// Paths verifies the full checked path-reconstruction surface of the
// block-cut oracle on g over every ordered pair, plus out-of-range probes,
// for every way an oracle comes to exist: built, restored from a snapshot,
// and after a weight-only and a structural delta. On failure it reports a
// locally edge-minimal ddmin witness too; nil means every pair round-trips.
func Paths(g *graph.Graph) error {
	if err := pathsOnce(g); err != nil {
		witness := MinimizeEdges(g.Edges(), func(edges []graph.Edge) bool {
			return pathsOnce(graph.FromEdges(g.NumVertices(), edges)) != nil
		})
		if witness != nil {
			h, _ := CompactVertices(graph.FromEdges(g.NumVertices(), witness))
			werr := pathsOnce(h)
			if werr != nil {
				return fmt.Errorf("check: paths: %v [witness: %d vertices, %d edges: %v]",
					err, h.NumVertices(), h.NumEdges(), h.Edges())
			}
		}
		return fmt.Errorf("check: paths: %v", err)
	}
	return nil
}

// pathsOnce runs the matrix of pair sweeps without minimisation.
func pathsOnce(g *graph.Graph) error {
	n, m := int32(g.NumVertices()), int32(g.NumEdges())
	type stage struct {
		name   string
		script []apsp.Delta
	}
	stages := []stage{{name: "built"}}
	if m > 0 {
		stages = append(stages,
			stage{"weight delta", []apsp.Delta{{Kind: apsp.DeltaWeight, Edge: m / 2, W: g.Edge(m/2).W + 1.5}}},
			// The insert merges every block between its endpoints into
			// one, the delete may split one.
			stage{"structural delta", []apsp.Delta{
				{Kind: apsp.DeltaInsert, U: 0, V: n - 1, W: 2.5},
				{Kind: apsp.DeltaDelete, Edge: 0},
			}})
	}
	ctx := context.Background()
	built := apsp.NewOracle(g)
	var buf bytes.Buffer
	if _, err := built.WriteTo(&buf); err != nil {
		return err
	}
	loaded, err := apsp.ReadOracle(&buf)
	if err != nil {
		return fmt.Errorf("ReadOracle: %v", err)
	}
	if err := sweepPaths(g, loaded); err != nil {
		return fmt.Errorf("loaded: %v", err)
	}
	for _, st := range stages {
		h, o := g, built
		if st.script != nil {
			if h, err = apsp.MutateGraph(g, st.script); err != nil {
				return err
			}
			if o, _, err = built.ApplyDelta(ctx, st.script); err != nil {
				return fmt.Errorf("%s: %v", st.name, err)
			}
		}
		if err := sweepPaths(h, o); err != nil {
			return fmt.Errorf("%s: %v", st.name, err)
		}
	}
	return nil
}

// sweepPaths checks every ordered pair of o against g, then the
// out-of-range probes.
func sweepPaths(g *graph.Graph, o *apsp.Oracle) error {
	n := int32(g.NumVertices())
	for u := int32(0); u < n; u++ {
		for v := int32(0); v < n; v++ {
			if err := pairPath(g, o, u, v); err != nil {
				return err
			}
		}
	}
	return probeRange(o, int(n))
}

// probeRange asserts the checked surface rejects out-of-range queries with
// ErrVertexRange instead of panicking.
func probeRange(o *apsp.Oracle, n int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("out-of-range probe: panic: %v", r)
		}
	}()
	for _, pair := range [][2]int32{{-1, 0}, {0, int32(n)}, {int32(n), -1}} {
		if _, qerr := o.QueryChecked(pair[0], pair[1]); qerr == nil {
			return fmt.Errorf("QueryChecked(%d,%d) on %d vertices: no error", pair[0], pair[1], n)
		}
		if _, perr := o.PathChecked(pair[0], pair[1]); perr == nil {
			return fmt.Errorf("PathChecked(%d,%d) on %d vertices: no error", pair[0], pair[1], n)
		}
	}
	return nil
}
