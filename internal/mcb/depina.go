package mcb

import (
	"context"
	"time"

	"repro/internal/bitvec"
	"repro/internal/ds"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/par"
)

// solveCoreCtx runs the De Pina algorithm (Algorithm 2) on one connected
// working graph (already perturbed) and returns the basis as local edge
// IDs, along with the work counters and the work log Result.Price turns
// into virtual time. The caller translates edges back to the original
// graph and recomputes original weights.
//
// With opts.Workers > 1 the three phases execute on a real goroutine pool:
// candidate trees fan out one root per unit, label recomputation one tree
// per unit, the candidate scan in windows all workers evaluate together
// (the paper's Section 3.3.2 batched scan), and witness updates one
// remaining witness per unit. Every parallel stage merges its outputs in a
// fixed order, so the basis — and the work counters — are bit-identical to
// a sequential run at any worker count. Cancelling ctx stops the solve
// between work units and returns the context error.
func solveCoreCtx(ctx context.Context, g *graph.Graph, opts Options) (cycles [][]int32, res *Result, err error) {
	res = &Result{}
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

	// Wall-clock phase timers, accumulated locally and recorded into the
	// process registry once per solve (obs.Phases takes a lock per Record).
	var labelDur, scanDur, witnessDur, candDur time.Duration
	defer func() {
		ph := obs.Default.Phases("mcb")
		ph.Record("candidates", candDur)
		ph.Record("labels", labelDur)
		ph.Record("scan", scanDur)
		ph.Record("witness", witnessDur)
	}()

	// The signed-graph search needs no trees, candidates or labels.
	var (
		cs       *candidateSet
		ls       *labelState
		store    *ds.ChunkedList
		labelOps int64 // per phase: one op per tree vertex, the same every phase
	)
	if !opts.SignedSearch {
		t0 := time.Now()
		cs, err = buildCandidatesCtx(ctx, g, roots, opts.Workers)
		candDur += time.Since(t0)
		if err != nil {
			return nil, nil, err
		}
		res.TreeOps = cs.TreeOps
		res.NumCandidates = len(cs.cands)
		res.RejectedCandidates = int(cs.Rejected)
		ls = newLabelState(cs, sp)
		rec.treeOps, rec.depths = cs.TreeOps, cs.depths
		rec.treeSize = make([]int64, len(roots))
		for i, t := range cs.trees {
			rec.treeSize[i] = int64(len(t.Order))
			labelOps += rec.treeSize[i]
		}

		// Candidate store: indices into the weight-sorted slice, held in
		// the paper's hybrid chunked list so removals stay O(1) and scans
		// linear.
		store = ds.NewChunkedList(opts.BatchSize)
		for i := range cs.cands {
			store.Append(uint32(i))
		}
	}

	// Witnesses: the standard basis of {0,1}^f.
	wit := make([]*bitvec.Vector, f)
	for i := range wit {
		wit[i] = bitvec.New(f)
		wit[i].Set(i, true)
	}

	var signed *signedSearcher
	if opts.SignedSearch {
		signed = newSignedSearcher(g, sp, roots)
	}

	// Scan window: the batch every worker evaluates together. Scratch is
	// hoisted out of the phase loop; the window is capped so the scratch
	// stays cache-resident.
	scanWindow := opts.BatchSize * max(1, opts.Workers)
	var (
		scanVals []uint32
		scanCurs []ds.Cursor
		scanHits []bool
	)
	if !opts.SignedSearch && opts.Workers > 1 {
		scanVals = make([]uint32, 0, scanWindow)
		scanCurs = make([]ds.Cursor, 0, scanWindow)
		scanHits = make([]bool, scanWindow)
	}

	words := int64(f+63) / 64
	for i := 0; i < f; i++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		s := wit[i]

		if opts.SignedSearch {
			// De Pina's original search: no labels; a signed-graph
			// Dijkstra per root finds the minimum odd cycle directly.
			prevOps := signed.Ops
			edges, ok := signed.minOddCycle(s)
			dOps := signed.Ops - prevOps
			res.SearchOps += dOps
			rec.search = append(rec.search, dOps)
			var ci *bitvec.Vector
			if ok {
				ci = bitvec.New(f)
				for _, eid := range edges {
					if idx := sp.nontreeIndex[eid]; idx >= 0 {
						ci.Flip(int(idx))
					}
				}
			} else {
				res.Fallbacks++
				pos := s.Ones()[0]
				edges = sp.fundamentalCycle(sp.nontree[pos])
				ci = bitvec.New(f)
				for _, eid := range edges {
					if idx := sp.nontreeIndex[eid]; idx >= 0 {
						ci.Flip(int(idx))
					}
				}
			}
			cycles = append(cycles, edges)
			if err := updateWitnesses(ctx, opts, wit, ci, s, i, f, words, res, &witnessDur); err != nil {
				return nil, nil, err
			}
			continue
		}

		// Phase 1: recompute all tree labels against S_i, one tree per
		// work unit on the pool.
		t0 := time.Now()
		err := par.ParallelForCtx(ctx, opts.Workers, len(roots), func(_, ri int) {
			ls.computeTree(ri, s)
		})
		labelDur += time.Since(t0)
		if err != nil {
			return nil, nil, err
		}
		res.LabelOps += labelOps

		// Phase 2: scan candidates in weight order, in batches, for the
		// first cycle with <C, S_i> = 1. The parallel driver makes the
		// batch of Section 3.3.2 real: a window of live candidates is
		// carved out of the store, every worker tests a contiguous chunk of
		// it, and the earliest hit in store order wins — the same candidate
		// the sequential early-exit scan selects. SearchOps counts live
		// entries up to and including the hit (its position in scan order),
		// so the work accounting is also identical at any worker count.
		var chosen candidate
		found := false
		scanned := int64(0)
		t0 = time.Now()
		if opts.Workers > 1 {
			var cur ds.Cursor
			for {
				if err := ctx.Err(); err != nil {
					scanDur += time.Since(t0)
					return nil, nil, err
				}
				var last ds.Cursor
				scanVals, scanCurs, last = store.BatchFrom(cur, scanWindow, scanVals[:0], scanCurs[:0])
				if len(scanVals) == 0 {
					break
				}
				hits := scanHits[:len(scanVals)]
				chunk := (len(scanVals) + opts.Workers - 1) / opts.Workers
				par.ParallelFor(opts.Workers, (len(scanVals)+chunk-1)/chunk, func(_, w int) {
					lo := w * chunk
					hi := lo + chunk
					if hi > len(scanVals) {
						hi = len(scanVals)
					}
					for k := lo; k < hi; k++ {
						hits[k] = ls.nonOrthogonal(cs.cands[scanVals[k]], s)
					}
				})
				hitAt := -1
				for k := range hits {
					if hits[k] {
						hitAt = k
						break
					}
				}
				if hitAt >= 0 {
					scanned += int64(hitAt) + 1
					chosen = cs.cands[scanVals[hitAt]]
					store.Remove(scanCurs[hitAt])
					found = true
					break
				}
				scanned += int64(len(scanVals))
				if len(scanVals) < scanWindow {
					break
				}
				cur = last
			}
		} else {
			cur, hit := store.Scan(func(idx uint32) bool {
				scanned++
				if ls.nonOrthogonal(cs.cands[idx], s) {
					chosen = cs.cands[idx]
					return false
				}
				return true
			})
			if hit {
				store.Remove(cur)
				found = true
			}
		}
		scanDur += time.Since(t0)
		res.SearchOps += scanned
		rec.search = append(rec.search, scanned)

		var ci *bitvec.Vector
		var edges []int32
		if found {
			edges = cs.cycleEdges(chosen)
			ci = ls.vectorOf(chosen)
		} else {
			// Defensive fallback: with unique shortest paths the candidate
			// set always contains a matching cycle; if floating point ties
			// defeated uniqueness, fall back to a fundamental cycle of any
			// set witness coordinate (correct basis, possibly non-minimal).
			res.Fallbacks++
			pos := s.Ones()[0]
			edges = sp.fundamentalCycle(sp.nontree[pos])
			ci = bitvec.New(f)
			for _, eid := range edges {
				if idx := sp.nontreeIndex[eid]; idx >= 0 {
					ci.Flip(int(idx))
				}
			}
		}
		cycles = append(cycles, edges)

		// Phase 3: independence test.
		if err := updateWitnesses(ctx, opts, wit, ci, s, i, f, words, res, &witnessDur); err != nil {
			return nil, nil, err
		}
	}
	res.work = []work{rec}
	return cycles, res, nil
}

// updateWitnesses performs the independence test — make the remaining
// witnesses orthogonal to C_i (steps 4–6 of Algorithm 2). One unit per
// remaining witness; each witness j is read and written only by the worker
// that claimed unit j, so the parallel update touches disjoint vectors and
// stays deterministic.
func updateWitnesses(ctx context.Context, opts Options, wit []*bitvec.Vector, ci, s *bitvec.Vector, i, f int,
	words int64, res *Result, dur *time.Duration) error {
	rest := f - i - 1
	if rest <= 0 {
		return nil
	}
	t0 := time.Now()
	err := par.ParallelForCtx(ctx, opts.Workers, rest, func(_, jj int) {
		j := i + 1 + jj
		if ci.Dot(wit[j]) {
			wit[j].Xor(s)
		}
	})
	*dur += time.Since(t0)
	if err != nil {
		return err
	}
	res.UpdateOps += int64(rest) * words
	return nil
}
