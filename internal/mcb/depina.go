package mcb

import (
	"context"
	"time"

	"repro/internal/bitvec"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/par"
)

// search is step 3 of Algorithm 2 for phase i: the minimum weight cycle C
// with <C, S_i> = 1, as edge IDs of the working graph, and the primitive
// operations finding it took. ok is false when the search has no such
// cycle to offer. xor hears of every S_j ^= S_i the witness update applies
// within i's block of 64 (labels.go). The labelled-tree search (labels.go)
// is the paper's; De Pina's signed-graph search (signed.go) is the
// cross-check.
type search interface {
	next(wit []*bitvec.Vector, i int) (edges []int32, ops int64, ok bool)
	xor(j, i int)
}

// phaseTimes are one solve's wall-clock phase timers, accumulated locally
// and recorded into the solve's Result.Timing once (obs.Phases takes a
// lock per Record). candidates is the processing phase: the trees, the
// candidate cycles and their flat layout.
type phaseTimes struct{ candidates, labels, scan, witness time.Duration }

func (p *phaseTimes) record(ph *obs.Phases) {
	ph.Record("candidates", p.candidates)
	ph.Record("labels", p.labels)
	ph.Record("scan", p.scan)
	ph.Record("witness", p.witness)
}

// solveCoreCtx runs the De Pina algorithm (Algorithm 2) on one connected
// working graph (already perturbed) and returns the basis as local edge
// IDs, along with the work counters and the work log Result.Price turns
// into virtual time. The caller translates edges back to the original
// graph and recomputes original weights.
//
// With opts.Workers > 1 the stages with enough work per unit to pay for a
// fan-out run on a real goroutine pool: a candidate tree and its
// candidates one root per unit, witness updates after the current block
// one contiguous range per unit once a range is witnessGrain words. The
// relabel, the scans and the in-block updates run on the caller at every
// worker count (labels.go). Every parallel stage writes disjoint slots
// merged in a fixed order, so the basis — and the work counters — are
// bit-identical to a sequential run at any worker count. Cancelling ctx
// stops the solve between phases and between work units and returns the
// context error.
func solveCoreCtx(ctx context.Context, g *graph.Graph, opts Options) (cycles [][]int32, res *Result, err error) {
	res = &Result{Timing: &obs.Phases{}}
	sp := buildSpanning(g)
	f := sp.dim()
	res.Dim = f
	if f == 0 {
		return nil, res, nil
	}
	var roots []int32
	if opts.AllRoots {
		for v := int32(0); v < int32(g.NumVertices()); v++ {
			roots = append(roots, v)
		}
	} else {
		roots = FeedbackVertexSet(g)
	}
	res.NumRoots = len(roots)

	rec := work{n: g.NumVertices(), signed: opts.SignedSearch, search: make([]int64, 0, f)}
	var tm phaseTimes
	defer tm.record(res.Timing)

	var (
		find     search
		labelOps int64 // per phase: one op per tree vertex, the same every phase
	)
	if opts.SignedSearch {
		// The signed-graph search needs no trees, candidates or labels.
		find = newSignedSearcher(g, sp, roots)
	} else {
		ls, err := newLabelState(ctx, g, sp, roots, opts.Workers, &tm)
		if err != nil {
			return nil, nil, err
		}
		cs := ls.cs
		res.TreeOps = cs.TreeOps
		res.NumCandidates = len(cs.cands)
		res.RejectedCandidates = int(cs.Rejected)
		rec.treeOps, rec.depths = cs.TreeOps, cs.depths
		rec.treeSize = make([]int64, len(roots))
		for i, t := range cs.trees {
			rec.treeSize[i] = int64(len(t.Order))
			labelOps += rec.treeSize[i]
		}
		find = ls
	}

	// Witnesses: the standard basis of {0,1}^f.
	wit := make([]*bitvec.Vector, f)
	for i := range wit {
		wit[i] = bitvec.New(f)
		wit[i].Set(i, true)
	}

	for i, s := range wit {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		edges, ops, ok := find.next(wit, i)
		res.LabelOps += labelOps
		res.SearchOps += ops
		rec.search = append(rec.search, ops)
		if !ok {
			// Defensive fallback: with unique shortest paths the candidate
			// set always contains a matching cycle; if floating point ties
			// defeated uniqueness, fall back to a fundamental cycle of any
			// set witness coordinate (correct basis, possibly non-minimal).
			res.Fallbacks++
			edges = sp.fundamentalCycle(sp.nontree[s.Ones()[0]])
		}
		cycles = append(cycles, edges)

		// Independence test.
		if err := updateWitnesses(ctx, opts.Workers, wit, sp.vector(edges), i, res, &tm.witness, find); err != nil {
			return nil, nil, err
		}
	}
	res.work = []work{rec}
	return cycles, res, nil
}

// witnessGrain is the least witness-update work, in 64-bit words, handed to
// a goroutine of its own: a fan-out costs tens of microseconds, this many
// words about as much, and below it the update runs on the caller.
const witnessGrain = 1 << 14

// updateWitnesses performs the independence test — make the witnesses after
// S_i orthogonal to C_i (steps 4–6 of Algorithm 2). The rest of i's block
// is updated on the caller, and each S_j ^= S_i there reported to find.
// The witnesses after the block are cut into contiguous ranges, one per
// unit; each witness is read and written only by the worker that claimed
// its range, so the parallel update touches disjoint vectors and stays
// deterministic.
func updateWitnesses(ctx context.Context, workers int, wit []*bitvec.Vector, ci *bitvec.Vector, i int,
	res *Result, dur *time.Duration, find search) error {
	f, s, end := len(wit), wit[i], min(len(wit), (i|63)+1)
	rest, words := f-end, (f+63)/64
	t0 := time.Now()
	for j := i + 1; j < end; j++ {
		if ci.Dot(wit[j]) {
			wit[j].Xor(s)
			find.xor(j, i)
		}
	}
	chunks := max(1, min(workers, rest*words/witnessGrain))
	per := max(1, (rest+chunks-1)/chunks)
	err := par.ParallelForCtx(ctx, workers, (rest+per-1)/per, func(_, c int) {
		for _, w := range wit[end+c*per : min(end+(c+1)*per, f)] {
			if ci.Dot(w) {
				w.Xor(s)
			}
		}
	})
	*dur += time.Since(t0)
	if err != nil {
		return err
	}
	res.UpdateOps += int64(f-i-1) * int64(words)
	return nil
}
