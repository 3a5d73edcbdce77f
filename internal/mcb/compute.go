package mcb

import (
	"context"
	"fmt"
	"time"

	"repro/internal/bcc"
	"repro/internal/ear"
	"repro/internal/graph"
	"repro/internal/obs"
)

// Compute returns a minimum weight cycle basis of g. It is a thin wrapper
// over ComputeCtx with a background context, which never cancels, so the
// error is impossible by construction.
func Compute(g *graph.Graph, opts Options) *Result {
	res, _ := ComputeCtx(context.Background(), g, opts)
	return res
}

// ComputeCtx computes a minimum weight cycle basis of g, honouring ctx.
//
// Following Section 3.3, the graph is split into biconnected components (no
// MCB cycle spans two components); each component is optionally
// ear-reduced (Lemma 3.1), solved with the De Pina/Mehlhorn–Michail engine
// on the selected platform, and the basis cycles are expanded back to
// original edge IDs by substituting each contracted chain.
//
// With Options.Workers > 1 the candidate shortest-path trees, the candidate
// enumeration and large witness updates fan out over a pool of that many
// goroutines, with per-unit outputs merged in a fixed order so the basis is
// bit-identical to the sequential result (see DESIGN.md §7 for the
// determinism argument and for why relabel and scan do not fan out).
//
// Cancellation is cooperative and prompt: the pipeline checks ctx between
// components, between De Pina phases, and between work units inside each
// parallel stage, so a cancelled request stops tree construction mid-flight. On
// cancellation ComputeCtx returns a nil Result and an error wrapping
// ctx.Err() (errors.Is-compatible with context.Canceled and
// context.DeadlineExceeded).
func ComputeCtx(ctx context.Context, g *graph.Graph, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	// The solves time their own phases; prepare is everything around them
	// (split, ear reduction, perturbation, expanding the basis back) and
	// price the virtual clock, so the phases add up to the call.
	var solving time.Duration
	t0 := time.Now()
	total, err := solveComponents(ctx, g, opts.UseEar, opts.Seed, func(ctx context.Context, work *graph.Graph) ([][]int32, *Result, error) {
		defer func(t time.Time) { solving += time.Since(t) }(time.Now())
		return solveCoreCtx(ctx, work, opts)
	})
	if err != nil {
		return nil, fmt.Errorf("mcb: compute cancelled: %w", err)
	}
	total.Timing.Record("prepare", time.Since(t0)-solving)
	defer total.Timing.Start("price")()
	total.Phase = total.Price(opts.Platform)
	total.SimSeconds = total.Phase.Total()
	return total, nil
}

// coreSolver solves one connected working graph (already perturbed) and
// returns its basis as local edge IDs with the work counters: De Pina's
// solveCoreCtx or Horton's hortonCore.
type coreSolver func(ctx context.Context, work *graph.Graph) ([][]int32, *Result, error)

// solveComponents is the per-component driver of Section 3.3 that
// ComputeCtx and HortonMCB share: split g into biconnected components,
// skip those that cannot hold a cycle, optionally ear-reduce (Lemma 3.1),
// perturb, solve with core, expand each contracted chain and translate the
// cycles back to g's edge IDs and original weights. A core error (only
// cancellation) is returned as is.
func solveComponents(ctx context.Context, g *graph.Graph, useEar bool, seed uint64, core coreSolver) (*Result, error) {
	total := &Result{Timing: &obs.Phases{}}
	dec := bcc.Compute(g)
	for si, sub := range dec.Subgraphs(g) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		local := sub.G
		// Quick skip: a component contributes cycles only if it has at
		// least as many edges as a spanning tree.
		if local.NumEdges() < local.NumVertices() {
			hasLoop := false
			for _, e := range local.Edges() {
				if e.U == e.V {
					hasLoop = true
					break
				}
			}
			if !hasLoop {
				continue
			}
		}
		work := local
		var red *ear.Reduced
		if useEar {
			red = ear.Reduce(local, ear.MCB)
			work = red.R
		}
		localCycles, r, err := core(ctx, perturb(work, seed+uint64(si)*0x9e3779b97f4a7c15))
		if err != nil {
			return nil, err
		}
		if red != nil {
			r.NodesRemoved = red.NumRemoved()
			for i, rc := range localCycles {
				var expanded []int32
				for _, re := range rc {
					expanded = append(expanded, red.ExpandEdge(re)...)
				}
				localCycles[i] = expanded
			}
		}
		for _, lc := range localCycles {
			c := Cycle{Edges: make([]int32, len(lc))}
			for i, le := range lc {
				pe := sub.ToParentEdge[le]
				c.Edges[i] = pe
				c.Weight += g.Edge(pe).W
			}
			r.TotalWeight += c.Weight
			r.Cycles = append(r.Cycles, c)
		}
		total.merge(r)
	}
	return total, nil
}

// Dim returns the cycle space dimension m − n + k of g, the expected basis
// size.
func Dim(g *graph.Graph) int {
	return g.NumEdges() - g.NumVertices() + graph.CountComponents(g)
}
