package mcb

import (
	"repro/internal/graph"
	"repro/internal/obs"
)

// Platform selects which of the paper's four implementations (Table 2)
// a solve is priced on (price.go). It never changes what the solve
// executes or the basis it returns.
type Platform int

const (
	// Sequential runs everything on one simulated CPU core.
	Sequential Platform = iota
	// Multicore spreads label computation and witness updates over the
	// 20-core CPU model.
	Multicore
	// GPU runs the phases as simulated kernels on the K40c model.
	GPU
	// Heterogeneous splits every phase between CPU and GPU through the
	// dynamic work queue.
	Heterogeneous
)

func (p Platform) String() string {
	switch p {
	case Sequential:
		return "sequential"
	case Multicore:
		return "multicore"
	case GPU:
		return "gpu"
	case Heterogeneous:
		return "cpu+gpu"
	}
	return "unknown"
}

// Options configures a Compute run.
type Options struct {
	// UseEar applies the ear-decomposition reduction (Lemma 3.1) before
	// solving; false reproduces the paper's "w/o" columns.
	UseEar bool
	// Platform selects the Table 2 implementation Result.SimSeconds and
	// Result.Phase are priced on; Result.Price gives any other.
	Platform Platform
	// Workers sets real goroutine parallelism (wall-clock) for the stages
	// that fan out — candidate shortest-path trees, candidate enumeration
	// and large witness updates; 0 or 1 runs single-threaded. Every
	// parallel stage merges its outputs in a fixed order, so the basis
	// and the work counters are bit-identical at any worker count; only
	// wall-clock time changes.
	Workers int
	// AllRoots uses every vertex as a Horton root instead of a feedback
	// vertex set (the paper's pre-FVS formulation; ablation knob).
	AllRoots bool
	// SignedSearch replaces the Mehlhorn–Michail labelled-tree search with
	// De Pina's original signed auxiliary graph search (Section 3.2.1):
	// per phase, a two-level Dijkstra from each FVS root finds the minimum
	// weight cycle non-orthogonal to the witness. Slower, kept as an
	// independent cross-check and ablation.
	SignedSearch bool
	// Seed drives the weight perturbation (deterministic per seed).
	Seed uint64
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.Seed == 0 {
		o.Seed = 0x9e3779b97f4a7c15
	}
	return o
}

// Cycle is one basis element, as edge IDs of the input graph with its
// weight under the original (unperturbed) weights.
type Cycle struct {
	Edges  []int32
	Weight graph.Weight
}

// PhaseBreakdown reports the simulated seconds spent in each phase —
// the paper's 76/14/8 split (Section 3.5). Tree is the one-off shortest
// path tree construction folded into the processing phase.
type PhaseBreakdown struct {
	Tree   float64
	Label  float64
	Search float64
	Update float64
}

// Total sums the phases.
func (p PhaseBreakdown) Total() float64 { return p.Tree + p.Label + p.Search + p.Update }

// Result of an MCB computation.
type Result struct {
	Cycles      []Cycle
	TotalWeight graph.Weight
	Dim         int

	// Phase is Price(Options.Platform), the virtual-clock seconds per
	// phase on the selected platform; SimSeconds is its Total.
	SimSeconds float64
	Phase      PhaseBreakdown

	// Work counters (primitive operations per phase).
	TreeOps, LabelOps, SearchOps, UpdateOps int64

	// NumRoots and NumCandidates record the Horton stage sizes;
	// RejectedCandidates counts raw Horton cycles pruned by the isometric
	// filter (the Mehlhorn–Michail reduction's measured effect); Fallbacks
	// counts phases where no candidate matched and a fundamental cycle was
	// substituted (always 0 when shortest paths are unique — tests assert
	// this).
	NumRoots           int
	NumCandidates      int
	RejectedCandidates int
	Fallbacks          int

	// NodesRemoved counts vertices eliminated by the ear reduction.
	NodesRemoved int

	// Timing is the wall-clock phases of the call that returned the
	// result: prepare, candidates, labels, scan, witness and price for
	// ComputeCtx. It is the only place a computation reports its time.
	Timing *obs.Phases

	// work is the per-component log Price replays, in component order.
	work []work
}

func (p *PhaseBreakdown) add(o PhaseBreakdown) {
	p.Tree += o.Tree
	p.Label += o.Label
	p.Search += o.Search
	p.Update += o.Update
}

func (r *Result) merge(o *Result) {
	r.Cycles = append(r.Cycles, o.Cycles...)
	r.TotalWeight += o.TotalWeight
	r.Dim += o.Dim
	r.work = append(r.work, o.work...)
	r.TreeOps += o.TreeOps
	r.LabelOps += o.LabelOps
	r.SearchOps += o.SearchOps
	r.UpdateOps += o.UpdateOps
	r.NumRoots += o.NumRoots
	r.NumCandidates += o.NumCandidates
	r.RejectedCandidates += o.RejectedCandidates
	r.Fallbacks += o.Fallbacks
	r.NodesRemoved += o.NodesRemoved
	r.Timing.Add(o.Timing)
}
