// Package repro is an open-source reproduction of
//
//	Dutta, Chaitanya, Kothapalli, Bera:
//	"Applications of Ear Decomposition to Efficient Heterogeneous
//	Algorithms for Shortest Path/Cycle Problems" (IJNC 8(1), 2018 /
//	IPPS 2017).
//
// It provides ear-decomposition-accelerated all-pairs shortest paths and
// minimum weight cycle basis computation for large sparse graphs, the
// comparison baselines the paper evaluates against, and the harness that
// regenerates every table and figure of the paper's evaluation (see
// cmd/earbench).
//
// This file is the public facade over the internal packages. A name stays
// here only while it has a caller: an example under examples/ or in
// example_test.go, or the benchmark's pipeline (bench/), which is to switch
// from the internal packages to these forms. A type alias stays while a
// kept signature needs it. TestTreeInvariants holds the rule for this file
// and for every exported name under internal/.
package repro

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/apsp"
	"repro/internal/ear"
	"repro/internal/graph"
	"repro/internal/mcb"
	"repro/internal/par"
	"repro/internal/qe"
	"repro/internal/registry"
	"repro/internal/shard"
	"repro/internal/snapshot"
	"repro/internal/verify"
)

// Graph construction.
type (
	// Graph is an immutable weighted undirected multigraph in CSR form.
	Graph = graph.Graph
	// GraphBuilder accumulates edges before freezing them into a Graph.
	GraphBuilder = graph.Builder
	// Weight is the edge weight type.
	Weight = graph.Weight
)

// NewGraphBuilder returns a builder for a graph on n vertices 0..n-1.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// Ear decomposition.
type (
	// EarDecompositionEar is one ear (path) of an ear decomposition.
	EarDecompositionEar = ear.Ear
	// ReducedGraph is a graph with its degree-2 chains contracted plus the
	// anchor tables needed to answer queries about removed vertices.
	ReducedGraph = ear.Reduced
)

// errNilGraph is what every graph-taking entry point below returns for a
// nil graph instead of panicking inside the pipeline.
var errNilGraph = errors.New("repro: nil graph")

// EarDecompose returns the ears of a biconnected graph, or an error if the
// graph is not biconnected.
func EarDecompose(g *Graph) ([]EarDecompositionEar, error) {
	if g == nil {
		return nil, errNilGraph
	}
	return ear.Decompose(g)
}

// ReduceGraph contracts all maximal degree-2 chains of g (APSP mode).
func ReduceGraph(g *Graph) (*ReducedGraph, error) {
	if g == nil {
		return nil, errNilGraph
	}
	return ear.Reduce(g, ear.APSP), nil
}

// All-pairs shortest paths.
type (
	// APSPOracle answers distance queries in O(1) after the
	// ear-decomposition pipeline, storing O(a² + Σ nᵢ²) entries.
	APSPOracle = apsp.Oracle
)

// ShortestPaths builds the APSP oracle with the given parallelism of the
// per-block processing phase (0 = GOMAXPROCS).
func ShortestPaths(g *Graph, workers int) (*APSPOracle, error) {
	if g == nil {
		return nil, errNilGraph
	}
	if workers <= 0 {
		workers = par.Workers()
	}
	return apsp.NewOracleParallelCtx(context.Background(), g, workers)
}

// Oracle snapshots (build-once/serve-many persistence).
//
// A snapshot is one checksummed binary file holding what oracle
// construction paid for — the graph, the BCC partition, the per-block
// distance tables and the articulation table — so a serving process can
// load it and answer its first query without running a build phase; the
// per-block ear reductions and the block-cut forest are re-derived.
// Corrupt, truncated, version-skewed or wrong-kind files are rejected
// with a typed error, never a panic.

// WriteOracle serialises a built oracle to w.
func WriteOracle(w io.Writer, o *APSPOracle) (int64, error) { return o.WriteTo(w) }

// ReadOracle restores an oracle from a snapshot stream, with zero
// re-computation of any build phase.
func ReadOracle(r io.Reader) (*APSPOracle, error) { return apsp.ReadOracle(r) }

// SaveOracle writes the oracle snapshot to a file, durably and
// atomically: path holds the old complete snapshot or the new one.
func SaveOracle(path string, o *APSPOracle) error {
	return snapshot.WriteFile(path, func(f *os.File) error {
		_, err := o.WriteTo(f)
		return err
	})
}

// LoadOracle restores an oracle from a snapshot file written by
// SaveOracle (or cmd/apsp -snapshot, or oracled -save-snapshot).
func LoadOracle(path string) (*APSPOracle, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return apsp.ReadOracle(f)
}

// Live updates (deltas).
//
// ApplyDelta mutates an oracle incrementally: it classifies an ordered
// edge/weight delta script against the block partition, recomputes only
// the affected blocks, and returns a NEW oracle — the receiver keeps
// serving unchanged, so a server can swap atomically. Edge IDs are
// positional at application time: a delete shifts later IDs down, an
// insert appends. An invalid script is rejected whole, before any
// recomputation.
type (
	// Delta is one edge/weight mutation in a script.
	Delta = apsp.Delta
	// DeltaKind discriminates weight change, insertion, deletion.
	DeltaKind = apsp.DeltaKind
	// DeltaResult reports what one ApplyDelta call recomputed and what it
	// carried over.
	DeltaResult = apsp.DeltaResult
)

// The delta kinds.
const (
	// DeltaWeight changes the weight of an existing edge.
	DeltaWeight = apsp.DeltaWeight
	// DeltaInsert adds an edge (possibly growing the vertex set by its
	// endpoints).
	DeltaInsert = apsp.DeltaInsert
	// DeltaDelete removes an edge; later edge IDs shift down by one.
	DeltaDelete = apsp.DeltaDelete
)

// ApplyDelta applies an ordered delta script to o, returning the updated
// oracle (o itself is untouched) and a report of what was recomputed.
func ApplyDelta(ctx context.Context, o *APSPOracle, deltas []Delta) (*APSPOracle, *DeltaResult, error) {
	return o.ApplyDelta(ctx, deltas)
}

// Query serving.
type (
	// QueryEngine is the query engine of the serving stack: a point
	// Query is one pair lookup on the source; a Batch builds each distinct
	// source's row once, into per-batch scratch; admission control sheds
	// excess load of either kind with a typed error.
	QueryEngine = qe.Engine
	// EngineConfig tunes a QueryEngine; the zero value is usable.
	EngineConfig = qe.Config
	// RowSource is the oracle surface an engine builds rows from;
	// *APSPOracle satisfies it.
	RowSource = qe.RowSource
)

// NewQueryEngine builds a query engine over any RowSource.
func NewQueryEngine(src RowSource, cfg EngineConfig) *QueryEngine { return qe.New(src, cfg) }

// Unreachable reports whether a distance returned by an engine query
// means "no path".
func Unreachable(d Weight) bool { return qe.Unreachable(d) }

// Multi-tenant serving (the graph registry).
type (
	// Registry hosts many named graphs in one process: each is an
	// APSPOracle + QueryEngine pair hydrated lazily from a snapshot
	// directory (one <name>.snap per graph), with singleflight hydration,
	// capacity-bounded LRU eviction that prefers graphs nobody holds
	// (a held graph keeps serving its holders), per-graph engine limits,
	// and per-graph metric namespacing under "g.<name>.". Acquire returns
	// one resident graph with a reference held; callers Release it
	// exactly once.
	Registry = registry.Registry
	// RegistryConfig configures OpenRegistry; its Engine field is the
	// EngineConfig (admission and deadlines) every
	// hydrated graph's own engine is built from.
	RegistryConfig = registry.Config
)

// RegistryDefaultGraph is the reserved name carrying the single-graph
// compatibility surface: a daemon serving one graph pins it under this
// name, and unnamed routes resolve to it.
const RegistryDefaultGraph = registry.DefaultGraph

// OpenRegistry builds a graph registry over cfg, scanning cfg.Dir (when
// set) for *.snap files; hydration stays lazy until each graph's first
// Acquire.
func OpenRegistry(cfg RegistryConfig) (*Registry, error) { return registry.Open(cfg) }

// Horizontally sharded serving: a plan cuts an oracle's biconnected
// blocks across shards along the block-cut forest, each shard daemon
// serves its owned blocks' distance tables, and a frontend's
// RemoteRowSource fans row requests out over HTTP and stitches the
// answers at articulation points — byte-identical to the monolith.
type (
	// ShardPlan is the cluster's manifest: block→shard assignment, the
	// graph and its BCC partition (the frontend derives the block-cut
	// forest from them), the articulation-point boundary table, and a
	// content-derived plan epoch. Serialise with WriteShardPlan.
	ShardPlan = shard.Plan
	// ShardPlanOptions tunes PlanShards; the zero value of every field
	// except Shards is usable.
	ShardPlanOptions = shard.PlanOptions
	// ShardSourceConfig configures NewRemoteRowSource: the plan, one
	// address per shard, and the health-probe interval.
	ShardSourceConfig = shard.SourceConfig
	// RemoteRowSource is the frontend's fan-out RowSource: it fetches
	// block rows from their owning shard daemons — every reached block
	// for a row, at most two for a point query — stitches cross-block
	// answers through the plan's boundary table, and degrades into typed
	// unavailable / epoch-mismatch failures. It satisfies RowSource, so
	// NewQueryEngine serves it unchanged.
	RemoteRowSource = shard.RemoteSource
	// ShardMeta identifies one shard snapshot (epoch, shard id, shard
	// count); WriteShardSnapshot stamps it, ReadShardSnapshot checks it.
	ShardMeta = apsp.ShardMeta
	// ShardBlocks is one daemon's loaded shard snapshot: the owned
	// blocks' distance tables it serves rows from.
	ShardBlocks = apsp.ShardBlocks
)

// PlanShards cuts o into a serving cluster: blocks are assigned to
// opts.Shards shards weight-balanced along the block-cut forest, and the
// returned plan carries everything a frontend needs to stitch answers.
func PlanShards(o *APSPOracle, opts ShardPlanOptions) (*ShardPlan, error) {
	return shard.PlanShards(o, opts)
}

// WriteShardPlan serialises a plan manifest (checksummed; the reader
// rejects corruption and epoch 0, and takes the stored epoch as is).
func WriteShardPlan(w io.Writer, p *ShardPlan) (int64, error) { return p.WriteTo(w) }

// NewRemoteRowSource builds the frontend's fan-out source over a plan
// and one shard daemon address per shard. Close releases its probe
// loop and idle connections.
func NewRemoteRowSource(cfg ShardSourceConfig) (*RemoteRowSource, error) {
	return shard.NewRemoteSource(cfg)
}

// WriteShardSnapshot serialises the S^r tables of the blocks
// owned[b]==true selects, with the graph and its BCC partition, stamped
// with meta, for one shard daemon to serve.
func WriteShardSnapshot(w io.Writer, o *APSPOracle, meta ShardMeta, owned []bool) (int64, error) {
	return o.WriteShardSnapshot(w, meta, owned)
}

// ReadShardSnapshot loads a shard snapshot written by WriteShardSnapshot.
func ReadShardSnapshot(r io.Reader) (*ShardBlocks, error) { return apsp.ReadShardSnapshot(r) }

// Minimum cycle basis.
type (
	// MCBResult holds a minimum weight cycle basis and its accounting.
	MCBResult = mcb.Result
	// MCBOptions configures platform, parallelism and ablations.
	MCBOptions = mcb.Options
	// MCBCycle is one basis element.
	MCBCycle = mcb.Cycle
)

// MinimumCycleBasis computes an MCB with the ear reduction enabled.
func MinimumCycleBasis(g *Graph) (*MCBResult, error) {
	return MinimumCycleBasisOptsCtx(context.Background(), g, MCBOptions{UseEar: true, Workers: par.Workers()})
}

// MinimumCycleBasisOptsCtx computes an MCB with explicit options under
// ctx: the pipeline checks the context between biconnected components,
// between De Pina phases, and between the work units of each parallel
// stage, so cancellation stops candidate shortest-path trees mid-flight.
// On cancellation the error wraps ctx.Err() (errors.Is with
// context.Canceled / context.DeadlineExceeded).
func MinimumCycleBasisOptsCtx(ctx context.Context, g *Graph, opts MCBOptions) (*MCBResult, error) {
	if g == nil {
		return nil, errNilGraph
	}
	res, err := mcb.ComputeCtx(ctx, g, opts)
	if err != nil {
		return nil, err
	}
	if want := mcb.Dim(g); res.Dim != want {
		return nil, fmt.Errorf("repro: internal error: basis dimension %d, want %d", res.Dim, want)
	}
	return res, nil
}

// Verification certificates.

// VerifyPath certifies that walk is a walk in g of exactly the given
// weight.
func VerifyPath(g *Graph, walk []int32, weight Weight) error {
	return verify.Walk(g, walk, weight)
}

// VerifyCycleBasis certifies structure and independence of an MCB result.
func VerifyCycleBasis(g *Graph, res *MCBResult) error {
	return verify.CycleBasis(g, res)
}
