// Package apsp implements the paper's all-pairs shortest path algorithms:
// the ear-decomposition approach of Section 2 (Algorithm 1 for biconnected
// graphs, the block-cut tree extension of Section 2.2 for general graphs)
// and the three comparison baselines of Section 2.4.3 (plain per-source
// Dijkstra, the Banerjee et al. BCC approach, and the Djidjev et al.
// partition approach).
//
// Panic-free query contract: once an oracle is built, its query surface
// (Query, QueryChecked, Path, PathChecked, Row, Materialize) never panics
// on any input and never mutates oracle state — invalid vertex IDs surface
// as *QueryError from the *Checked variants (or nil/Inf from the unchecked
// ones), and every method is safe for concurrent callers. Long-lived
// serving processes (cmd/oracled) depend on both properties.
package apsp

import (
	"context"
	"math"

	"repro/internal/ear"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/sssp"
)

// Inf is the distance between disconnected vertices.
const Inf = sssp.Inf

// EarAPSP is the result of Algorithm 1 on a connected graph: the reduced
// graph, the all-pairs table S^r over reduced vertices, and O(1) queries
// for arbitrary vertex pairs via the post-processing formulas of
// Section 2.1.3.
type EarAPSP struct {
	G   *graph.Graph
	Red *ear.Reduced
	// SR is the nr×nr row-major distance table over reduced vertices
	// (S^r[s,t] in the paper). When the owning oracle was built with
	// Options.Compact32 the table lives in sr32 instead and SR is nil.
	SR   []graph.Weight
	sr32 []float32
	nr   int
	// Relaxations is the total Dijkstra work of the processing phase,
	// the work measure the virtual-clock devices charge.
	Relaxations int64
}

// newEarAPSP is the start every constructor shares: Phase I of
// Algorithm 1 (ear reduction; a nil red asks for it) and the empty nr×nr
// table S^r the processing phase then fills.
func newEarAPSP(g *graph.Graph, red *ear.Reduced) *EarAPSP {
	if red == nil {
		red = ear.Reduce(g, ear.APSP)
	}
	nr := red.R.NumVertices()
	return &EarAPSP{G: g, Red: red, nr: nr, SR: make([]graph.Weight, nr*nr)}
}

// fillDijkstra is the processing phase on real workers: one heap
// Dijkstra per reduced source (one instance per goroutine, as the paper
// runs the CPU side), stopping early — with no usable table — once ctx
// is done.
func (a *EarAPSP) fillDijkstra(ctx context.Context, workers int) error {
	if workers < 1 {
		workers = 1
	}
	scratch := make([]*sssp.Scratch, workers)
	relax := make([]int64, workers)
	for i := range scratch {
		scratch[i] = sssp.NewScratch(a.nr)
	}
	if err := par.ParallelForCtx(ctx, workers, a.nr, func(w, s int) {
		relax[w] += sssp.DistancesOnly(a.Red.R, int32(s), a.SR[s*a.nr:(s+1)*a.nr], scratch[w])
	}); err != nil {
		return err
	}
	for _, r := range relax {
		a.Relaxations += r
	}
	return nil
}

// NewEarAPSP runs the three phases of Algorithm 1 sequentially on a
// connected graph g: Reduce, per-source Dijkstra on G^r, and (lazily, at
// query time) UPDATE_DISTANCE.
func NewEarAPSP(g *graph.Graph) *EarAPSP { return NewEarAPSPParallel(g, 1) }

// NewEarAPSPParallel is NewEarAPSP with the processing phase spread over
// real goroutine workers.
func NewEarAPSPParallel(g *graph.Graph, workers int) *EarAPSP {
	a, _ := NewEarAPSPParallelCtx(context.Background(), g, workers)
	return a
}

// NewEarAPSPParallelCtx is NewEarAPSPParallel with cooperative
// cancellation: the per-source Dijkstra fan-out stops claiming sources
// once ctx is done and the context error is returned with no (partial)
// result. With a background context it never fails.
func NewEarAPSPParallelCtx(ctx context.Context, g *graph.Graph, workers int) (*EarAPSP, error) {
	a := newEarAPSP(g, nil)
	if err := a.fillDijkstra(ctx, workers); err != nil {
		return nil, err
	}
	return a, nil
}

// srAt returns S^r between two reduced IDs.
func (a *EarAPSP) srAt(x, y int32) graph.Weight {
	if a.sr32 != nil {
		v := a.sr32[int(x)*a.nr+int(y)]
		if v > math.MaxFloat32 { // the +Inf32 sentinel reads back as exact Inf
			return Inf
		}
		return graph.Weight(v)
	}
	return a.SR[int(x)*a.nr+int(y)]
}

// compress moves the S^r table to float32 storage and drops the float64
// copy. See Options.Compact32 for the rounding and Inf-sentinel policy.
// Idempotent; called once per block at build/load/delta time, never on the
// query path.
func (a *EarAPSP) compress() {
	if a.sr32 != nil || a.SR == nil {
		return
	}
	a.sr32 = compressTable(a.SR)
	a.SR = nil
}

// Query returns the shortest-path distance between any two original
// vertices, applying the Section 2.1.3 case analysis:
//
//   - both kept: S^r directly;
//   - one removed: min over its two anchors;
//   - both removed: min over the four anchor combinations, plus the direct
//     along-chain path when both lie on the same ear (including the
//     wrap-around on loop chains, which one of the four combinations
//     covers).
func (a *EarAPSP) Query(x, y int32) graph.Weight {
	if x < 0 || int(x) >= a.G.NumVertices() || y < 0 || int(y) >= a.G.NumVertices() {
		return Inf
	}
	if x == y {
		return 0
	}
	red := a.Red
	kx, ky := red.OrigToKept[x], red.OrigToKept[y]
	switch {
	case kx >= 0 && ky >= 0:
		return a.srAt(kx, ky)
	case kx >= 0:
		return a.queryKeptRemoved(kx, y)
	case ky >= 0:
		return a.queryKeptRemoved(ky, x)
	}
	// both removed
	ax, bx, dax, dbx := red.Anchors(x)
	ay, by, day, dby := red.Anchors(y)
	kax, kbx := red.OrigToKept[ax], red.OrigToKept[bx]
	kay, kby := red.OrigToKept[ay], red.OrigToKept[by]
	best := addInf(dax, a.srAt(kax, kay), day)
	best = min3(best, dax, a.srAt(kax, kby), dby)
	best = min3(best, dbx, a.srAt(kbx, kay), day)
	best = min3(best, dbx, a.srAt(kbx, kby), dby)
	if direct, _, ok := red.SameChain(x, y); ok && direct < best {
		best = direct
	}
	return best
}

// queryKeptRemoved computes d(v, x) for kept (reduced ID kv) and removed x.
func (a *EarAPSP) queryKeptRemoved(kv, x int32) graph.Weight {
	red := a.Red
	ax, bx, dax, dbx := red.Anchors(x)
	da := addInf(dax, a.srAt(red.OrigToKept[ax], kv), 0)
	db := addInf(dbx, a.srAt(red.OrigToKept[bx], kv), 0)
	if da < db {
		return da
	}
	return db
}

func addInf(a, b, c graph.Weight) graph.Weight {
	if a >= Inf || b >= Inf || c >= Inf {
		return Inf
	}
	return a + b + c
}

func min3(best, a, b, c graph.Weight) graph.Weight {
	if s := addInf(a, b, c); s < best {
		return s
	}
	return best
}

// Row writes the distances from source x to every vertex into out
// (len ≥ n) — one UPDATE_DISTANCE work-unit of the post-processing phase.
// It returns the number of table operations performed (the phase's work
// measure).
func (a *EarAPSP) Row(x int32, out []graph.Weight) int64 {
	n := a.G.NumVertices()
	for y := 0; y < n; y++ {
		out[y] = a.Query(x, int32(y))
	}
	return int64(n)
}

// Materialize fills the complete n×n table by running UPDATE_DISTANCE from
// every source; benchmarks use it as the paper's post-processing workload,
// tests as ground truth.
func (a *EarAPSP) Materialize() []graph.Weight {
	n := a.G.NumVertices()
	out := make([]graph.Weight, n*n)
	for x := 0; x < n; x++ {
		a.Row(int32(x), out[x*n:(x+1)*n])
	}
	return out
}
