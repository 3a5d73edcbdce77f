package mcb

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"repro/internal/graph"
)

// Convenience accessors over a computed basis.
//
// The checked variants (CycleChecked, CyclesThroughVertexChecked,
// VertexSequenceChecked) validate cycle indices, vertex IDs, and edge IDs
// before touching the graph, so per-query cycle expansion never panics on
// malformed input — the same panic-free contract as apsp's QueryChecked
// surface. The unchecked accessors remain for trusted in-process callers.

// Sentinel errors of the checked accessors; wrap-compatible with errors.Is.
var (
	// ErrCycleIndex reports a cycle index outside [0, len(Cycles)).
	ErrCycleIndex = errors.New("cycle index out of range")
	// ErrVertexRange reports a vertex ID outside [0, n).
	ErrVertexRange = errors.New("vertex out of range")
	// ErrEdgeRange reports a basis element referencing an edge ID outside
	// [0, m) — only possible for externally constructed Results.
	ErrEdgeRange = errors.New("cycle references edge out of range")
	// ErrNotClosedWalk reports a basis element that is not a single closed
	// walk and therefore has no vertex sequence.
	ErrNotClosedWalk = errors.New("cycle is not a single closed walk")
)

// CycleChecked returns basis element i after validating the index and, when
// g is non-nil, every edge ID against g.
func (r *Result) CycleChecked(g *graph.Graph, i int) (Cycle, error) {
	if i < 0 || i >= len(r.Cycles) {
		return Cycle{}, fmt.Errorf("mcb: cycle %d of %d-element basis: %w", i, len(r.Cycles), ErrCycleIndex)
	}
	c := r.Cycles[i]
	if g != nil {
		if err := checkEdges(g, c); err != nil {
			return Cycle{}, fmt.Errorf("mcb: cycle %d: %w", i, err)
		}
	}
	return c, nil
}

// checkEdges validates every edge ID of c against g.
func checkEdges(g *graph.Graph, c Cycle) error {
	m := int32(g.NumEdges())
	for _, eid := range c.Edges {
		if eid < 0 || eid >= m {
			return fmt.Errorf("edge %d on %d-edge graph: %w", eid, m, ErrEdgeRange)
		}
	}
	return nil
}

// SortedCycles returns the basis cycles ordered by increasing weight
// (ties by fewer edges, then insertion order). The Result is not
// modified.
func (r *Result) SortedCycles() []Cycle {
	out := append([]Cycle(nil), r.Cycles...)
	slices.SortStableFunc(out, func(a, b Cycle) int {
		return cmp.Or(cmp.Compare(a.Weight, b.Weight), cmp.Compare(len(a.Edges), len(b.Edges)))
	})
	return out
}

// MinimumCycle returns the lightest basis cycle and true, or a zero Cycle
// and false for an acyclic graph. By the matroid greedy property the
// lightest element of any minimum cycle basis is a minimum weight cycle of
// the whole graph, so this doubles as a (weighted) girth witness.
func (r *Result) MinimumCycle() (Cycle, bool) {
	if len(r.Cycles) == 0 {
		return Cycle{}, false
	}
	best := r.Cycles[0]
	for _, c := range r.Cycles[1:] {
		if c.Weight < best.Weight || (c.Weight == best.Weight && len(c.Edges) < len(best.Edges)) {
			best = c
		}
	}
	return best, true
}

// CyclesThroughVertex returns the basis cycles that touch v (as indices
// into r.Cycles). In ring-perception terms: the rings atom v belongs to.
func (r *Result) CyclesThroughVertex(g *graph.Graph, v int32) []int {
	var out []int
	for ci, c := range r.Cycles {
		for _, eid := range c.Edges {
			e := g.Edge(eid)
			if e.U == v || e.V == v {
				out = append(out, ci)
				break
			}
		}
	}
	return out
}

// CyclesThroughVertexChecked is CyclesThroughVertex with vertex and edge
// ID validation: it rejects v outside [0, n) and basis elements whose edge
// IDs do not belong to g instead of letting g.Edge panic.
func (r *Result) CyclesThroughVertexChecked(g *graph.Graph, v int32) ([]int, error) {
	if v < 0 || int(v) >= g.NumVertices() {
		return nil, fmt.Errorf("mcb: vertex %d on %d-vertex graph: %w", v, g.NumVertices(), ErrVertexRange)
	}
	for ci, c := range r.Cycles {
		if err := checkEdges(g, c); err != nil {
			return nil, fmt.Errorf("mcb: cycle %d: %w", ci, err)
		}
	}
	return r.CyclesThroughVertex(g, v), nil
}

// CyclesThroughEdge returns the basis cycles containing edge eid.
func (r *Result) CyclesThroughEdge(eid int32) []int {
	var out []int
	for ci, c := range r.Cycles {
		for _, e := range c.Edges {
			if e == eid {
				out = append(out, ci)
				break
			}
		}
	}
	return out
}

// VertexSequenceChecked is VertexSequence with edge ID validation and
// error reporting: it distinguishes out-of-range edge IDs (ErrEdgeRange)
// from structurally invalid elements (ErrNotClosedWalk).
func VertexSequenceChecked(g *graph.Graph, c Cycle) ([]int32, error) {
	if err := checkEdges(g, c); err != nil {
		return nil, fmt.Errorf("mcb: %w", err)
	}
	seq, ok := VertexSequence(g, c)
	if !ok {
		return nil, fmt.Errorf("mcb: %d-edge element: %w", len(c.Edges), ErrNotClosedWalk)
	}
	return seq, nil
}

// VertexSequence orders a cycle's vertices by walking its edges; it
// returns false for basis elements that are not a single closed walk
// (cannot happen for cycles produced by this package, but the function is
// defensive for externally constructed Results).
func VertexSequence(g *graph.Graph, c Cycle) ([]int32, bool) {
	if len(c.Edges) == 0 {
		return nil, false
	}
	if len(c.Edges) == 1 {
		e := g.Edge(c.Edges[0])
		if e.U != e.V {
			return nil, false
		}
		return []int32{e.U}, true
	}
	adj := map[int32][]int32{}
	for _, eid := range c.Edges {
		e := g.Edge(eid)
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	for _, nb := range adj {
		if len(nb) != 2 {
			return nil, false
		}
	}
	start := g.Edge(c.Edges[0]).U
	out := []int32{start}
	prev, cur := int32(-1), start
	for len(out) < len(c.Edges) {
		nbs := adj[cur]
		next := nbs[0]
		if next == prev {
			next = nbs[1]
		}
		// parallel-edge pair: both neighbours equal prev
		if next == prev && nbs[1] == prev {
			next = nbs[1]
		}
		prev, cur = cur, next
		out = append(out, cur)
	}
	// must close back to start
	closes := false
	for _, nb := range adj[cur] {
		if nb == start {
			closes = true
		}
	}
	if !closes {
		return nil, false
	}
	return out, true
}
