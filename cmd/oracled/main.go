// Command oracled serves shortest-path and cycle-basis queries over HTTP
// from a distance oracle built once at startup. It loads a graph from any
// supported file format — including the binary .earg containers written
// by graphgen, which skip parsing on restart — or generates a named dataset,
// builds the ear-decomposition oracle (and, with -mcb, a minimum cycle
// basis), and answers JSON queries until SIGTERM/SIGINT, at which point it
// stops accepting connections and drains in-flight requests.
//
//	oracled -dataset Planar_1 -save-snapshot oracle.snap     # build once, persist
//	oracled -load-snapshot oracle.snap                       # boot with zero build work
//	curl 'localhost:8080/v1/distance?u=0&v=17'
//
// -save-snapshot persists the oracle as one checksummed snapshot file, and
// -load-snapshot boots from one (written here or by cmd/apsp -snapshot)
// without running any build phase. The served graph is live: POST
// /v1/deltas applies an ordered script of edge weight changes,
// insertions, and deletions, recomputing only the affected blocks and
// swapping the new oracle in without dropping concurrent queries; with
// -save-snapshot, every apply first rewrites the file with the post-delta
// oracle, so a snapshot holds state, never a script to replay.
//
// The API lives under /v1/ and is mounted from the internal/api route
// table: each listed (method, path) is bound to one handler, any other
// method on a listed path answers 405 with an Allow header, and a
// graph-scoped route answers at /v1/graphs/{name}/x and — for the default
// graph — at /v1/x. All errors use one JSON envelope. Queries go through
// the internal/qe engine: a point query is one pair lookup over the
// oracle's tables, bulk queries build each distinct source's row once, and
// admission control sheds excess load with 503 + Retry-After (tune with
// -max-inflight, -queue-depth, and -deadline). Per-endpoint and engine
// metrics are exported under /v1/stats and /debug/vars; /debug/pprof/
// serves the standard profiles.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/apsp"
	"repro/internal/cli"
	"repro/internal/graph"
	"repro/internal/jobs"
	"repro/internal/mcb"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/qe"
	"repro/internal/registry"
	"repro/internal/shard"
	"repro/internal/snapshot"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8080", "listen address")
		file      = flag.String("file", "", "graph file (.mtx, .gr, .earg snapshot, or edge list)")
		dataset   = flag.String("dataset", "", "named synthetic dataset")
		scale     = flag.Float64("scale", 0.03, "dataset scale")
		seed      = flag.Uint64("seed", 1, "dataset seed")
		withMCB   = flag.Bool("mcb", false, "also compute a minimum cycle basis and serve /v1/mcb/cycle")
		saveSnap  = flag.String("save-snapshot", "", "write the oracle as a snapshot file at boot and again after every /v1/deltas apply")
		loadSnap  = flag.String("load-snapshot", "", "serve from an oracle snapshot, skipping the build entirely (replaces -file/-dataset)")
		drain     = flag.Duration("drain", 10*time.Second, "graceful shutdown drain timeout")
		shardSnap = flag.String("shard-snapshot", "",
			"serve one cluster shard from this shard snapshot (internal row RPC only; written by cmd/shardplan)")
		clusterPlan = flag.String("cluster-plan", "",
			"serve as a cluster frontend routing by this plan manifest (requires -cluster-shards)")
		clusterShards = flag.String("cluster-shards", "",
			"comma-separated shard daemon base URLs, one per plan shard, in shard order")

		// Query-engine tuning: one flag surface tunes both the single-graph
		// engine and every engine the registry hydrates.
		maxInflight = flag.Int("max-inflight", par.Workers(),
			"concurrently served queries (defaults to the worker count)")
		queueDepth = flag.Int("queue-depth", 64,
			"admitted requests that may wait beyond max-inflight before load-shedding (0 sheds immediately)")
		deadline = flag.Duration("deadline", 2*time.Second,
			"per-request deadline covering queue wait and row computation (0 disables)")

		// Multi-tenant registry.
		snapshotDir = flag.String("snapshot-dir", "",
			"serve every <name>.snap in this directory as a named graph under /v1/graphs/{name} (multi-tenant mode)")
		maxGraphs = flag.Int("max-graphs", registry.DefaultMaxGraphs,
			"resident hydrated graphs before LRU eviction (the pinned default graph is not counted)")

		// Async job tier; an empty -jobs-dir leaves it disabled.
		jobsDir = flag.String("jobs-dir", "",
			"enable the async job tier, persisting job checkpoints and NDJSON results here (empty = disabled)")
		jobChunk = flag.Int("job-chunk", 64,
			"sources per checkpointed chunk — the replay bound after a crash, and the granularity of progress, cancellation, and admission-control yielding")
	)
	cli.SetUsage("oracled", "[-file graph | -dataset name | -load-snapshot file | -snapshot-dir dir | -shard-snapshot file | -cluster-plan file -cluster-shards urls] [-addr host:port] [flags]")
	flag.Parse()

	// The daemon's one metrics registry: every serving component records
	// into it, and it is all /v1/stats and /debug/vars render.
	reg := obs.NewRegistry()
	reg.Attach("apsp.path.fallbacks", &apsp.PathFallbacks)
	engineCfg := qe.Config{
		MaxInflight: *maxInflight,
		QueueDepth:  *queueDepth,
		Deadline:    *deadline,
		Reg:         reg,
	}
	rcfg := registry.Config{Dir: *snapshotDir, MaxGraphs: *maxGraphs, Engine: engineCfg, Reg: reg}
	if err := validateServeOpts(serveOpts{
		snapshotDir:   *snapshotDir,
		file:          *file,
		dataset:       *dataset,
		loadSnap:      *loadSnap,
		saveSnap:      *saveSnap,
		shardSnap:     *shardSnap,
		clusterPlan:   *clusterPlan,
		clusterShards: *clusterShards,
		withMCB:       *withMCB,
	}); err != nil {
		cli.BadUsage("oracled", err.Error())
	}

	// The signal context exists before the build phases, not just the serve
	// loop, so SIGINT during a long basis computation aborts it promptly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	reg.Publish("obs")

	// Shard mode is a different daemon shape entirely: no /v1 surface, no
	// registry — just the internal row RPC over one shard snapshot.
	if *shardSnap != "" {
		runShardMode(ctx, reg, *addr, *shardSnap, *drain)
		return
	}

	var basis *mcb.Result
	var rg *registry.Registry
	var remote *shard.RemoteSource
	if rcfg.Dir != "" {
		// Multi-tenant mode: every <name>.snap in the directory is a named
		// graph, hydrated lazily on its first query.
		var err error
		rg, err = registry.Open(rcfg)
		if err != nil {
			cli.Fatalf("oracled", "%v", err)
		}
		fmt.Fprintf(os.Stderr, "oracled: multi-tenant: %d snapshots in %s (max %d resident) — hydration is lazy\n",
			len(rg.List()), rcfg.Dir, rg.MaxGraphs())
	} else if *clusterPlan != "" {
		// Frontend mode: the plan holds the graph, its partition, the
		// block-cut forest and A, but no block tables, and the registry
		// entry exposes no oracle. Block rows come from the shard daemons
		// through the fan-out source — all of a source's for a
		// batch row, at most two for a point query — and the engine stack
		// (admission, per-batch rows) applies unchanged.
		plan := loadClusterPlan(*clusterPlan)
		var err error
		remote, err = shard.NewRemoteSource(shard.SourceConfig{
			Plan:          plan,
			Addrs:         splitShardAddrs(*clusterShards),
			ProbeInterval: shardProbeInterval,
			Reg:           reg,
		})
		if err != nil {
			cli.Fatalf("oracled", "cluster frontend: %v", err)
		}
		engine := qe.New(remote, engineCfg)
		rg, err = registry.Open(rcfg) // Dir "": static-only, serves exactly the frontend entry
		if err != nil {
			cli.Fatalf("oracled", "%v", err)
		}
		rg.AddRemote(registry.DefaultGraph, engine, plan.NumVertices)
		fmt.Fprintf(os.Stderr, "oracled: cluster frontend: plan epoch %d, %d vertices, %d blocks over %d shards\n",
			plan.Epoch, plan.NumVertices, plan.NumBlocks(), plan.NumShards)
	} else {
		// Single-graph mode: build (or snapshot-load) one oracle and pin it
		// as the registry's default graph. Its engine metrics stay at the
		// metrics root, unprefixed, exactly as before multi-tenancy existed.
		// The oracle and the basis report their own timings; recording
		// them is this boot's job.
		var (
			g      *graph.Graph
			oracle *apsp.Oracle
		)
		if *loadSnap != "" {
			oracle = loadOracleSnapshot(reg, *loadSnap)
			// Serve — and, with -mcb, compute the basis over — the exact graph
			// decoded from the snapshot; no other source can skew it.
			g = oracle.G
			fmt.Fprintf(os.Stderr, "oracled: snapshot %s (%d vertices, %d edges) loaded in %v — no build phases run\n",
				*loadSnap, g.NumVertices(), g.NumEdges(), oracle.BuildPhases.Get("snapshot.load"))
		} else {
			var name string
			var err error
			g, name, err = cli.LoadInput(*file, *dataset, *scale, *seed)
			if err != nil {
				cli.Exit("oracled", err)
			}
			start := time.Now()
			oracle = apsp.NewOracleParallel(g, par.Workers())
			reg.Phases("apsp.build").Add(oracle.BuildPhases)
			reg.Counter("apsp.builds").Inc()
			reg.Counter("apsp.build.relaxations").Add(oracle.Relaxations)
			fmt.Fprintf(os.Stderr, "oracled: graph %s (%d vertices, %d edges), oracle built in %v (phases %s)\n",
				name, g.NumVertices(), g.NumEdges(), time.Since(start), oracle.BuildPhases)
		}
		if *saveSnap != "" {
			if err := saveOracleSnapshot(reg, *saveSnap, oracle); err != nil {
				cli.Fatalf("oracled", "save snapshot: %v", err)
			}
			fmt.Fprintf(os.Stderr, "oracled: wrote oracle snapshot %s\n", *saveSnap)
		}
		if *withMCB {
			start := time.Now()
			var err error
			basis, err = mcb.ComputeCtx(ctx, g, mcb.Options{UseEar: true, Workers: par.Workers(), Seed: *seed})
			if err != nil {
				cli.Fatalf("oracled", "cycle basis: %v", err)
			}
			reg.Phases("mcb").Add(basis.Timing)
			reg.Counter("mcb.computes").Inc()
			reg.Gauge("mcb.workers").Set(int64(par.Workers()))
			fmt.Fprintf(os.Stderr, "oracled: cycle basis: %d cycles, total weight %g, built in %v\n",
				len(basis.Cycles), basis.TotalWeight, time.Since(start))
		}
		engine := qe.New(oracle, engineCfg)
		var err error
		rg, err = registry.Open(rcfg) // Dir "": static-only, serves exactly the pinned graph
		if err != nil {
			cli.Fatalf("oracled", "%v", err)
		}
		rg.AddStatic(registry.DefaultGraph, oracle, engine)
	}

	// Async job tier (-jobs-dir): jobs acquire graphs through the registry
	// exactly like interactive requests, so a running job holds its graph's
	// entry and finishes on it even if eviction drops it; crash recovery
	// resumes interrupted jobs from their persisted checkpoints at Open.
	var jm *jobs.Manager
	if *jobsDir != "" {
		var err error
		jm, err = jobs.Open(jobs.Config{
			Dir:       *jobsDir,
			ChunkSize: *jobChunk,
			Host: func(ctx context.Context, name string) (jobs.GraphRef, error) {
				return rg.Acquire(ctx, name)
			},
			Known: func(name string) bool { _, ok := rg.Info(name); return ok },
			Reg:   reg,
		})
		if err != nil {
			cli.Fatalf("oracled", "jobs: %v", err)
		}
		fmt.Fprintf(os.Stderr, "oracled: async jobs enabled, checkpoints in %s\n", *jobsDir)
	}

	s := newServer(rg, basis, jm, reg)
	if remote != nil {
		s.enableCluster(remote)
	}
	s.savePath = *saveSnap

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		cli.Fatalf("oracled", "listen: %v", err)
	}
	srv := newHTTPServer(s.mux)
	fmt.Printf("oracled: serving on http://%s\n", ln.Addr())
	startPacer(reg, os.Getenv)
	if err := serve(ctx, srv, ln, *drain); err != nil {
		cli.Fatalf("oracled", "%v", err)
	}
	cctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	if jm != nil {
		// Before the registry: running jobs checkpoint their progress and
		// dispatch stops, so no job acquires from a closed registry and
		// fails. The interrupted checkpoints stay in the running state on
		// disk and resume on the next boot.
		jm.Close(cctx)
	}
	rg.Close(cctx)
	cancel()
	if remote != nil {
		remote.Close() // stops the health prober after the last query drains
	}
	fmt.Fprintln(os.Stderr, "oracled: drained, bye")
}

// serveOpts is the flag combination validateServeOpts rules on; a struct
// rather than positional parameters so the fail-fast tests read clearly.
type serveOpts struct {
	snapshotDir, file, dataset, loadSnap, saveSnap string
	shardSnap, clusterPlan, clusterShards          string
	withMCB                                        bool
}

// validateServeOpts fails fast on contradictory flag combinations, before
// any expensive work. A snapshot already embeds its graph, so combining
// -load-snapshot with -file/-dataset would silently ignore one of them —
// with -mcb the basis could then be computed against a different graph
// than the one served. -snapshot-dir is a different serving mode entirely
// (many graphs, none of them "the" graph), so every single-graph source
// and persistence flag conflicts with it.
func validateServeOpts(o serveOpts) error {
	if o.shardSnap != "" {
		switch {
		case o.clusterPlan != "" || o.clusterShards != "":
			return fmt.Errorf("-shard-snapshot serves one shard's row RPC; the frontend flags (-cluster-plan/-cluster-shards) belong to a different daemon")
		case o.file != "" || o.dataset != "" || o.loadSnap != "" || o.snapshotDir != "":
			return fmt.Errorf("-shard-snapshot is the shard's only graph source; it cannot be combined with -file, -dataset, -load-snapshot, or -snapshot-dir")
		case o.withMCB || o.saveSnap != "":
			return fmt.Errorf("a shard daemon serves block rows only; -mcb and -save-snapshot do not apply")
		}
	}
	if o.clusterPlan != "" {
		switch {
		case o.clusterShards == "":
			return fmt.Errorf("-cluster-plan needs -cluster-shards: one shard base URL per plan shard, comma-separated, in shard order")
		case o.file != "" || o.dataset != "" || o.loadSnap != "" || o.snapshotDir != "":
			return fmt.Errorf("-cluster-plan serves rows from the shard daemons; it cannot be combined with -file, -dataset, -load-snapshot, or -snapshot-dir")
		case o.withMCB || o.saveSnap != "":
			return fmt.Errorf("a cluster frontend holds no block tables and serves no local oracle; -mcb and -save-snapshot do not apply")
		}
	} else if o.clusterShards != "" {
		return fmt.Errorf("-cluster-shards without -cluster-plan: the shard list is meaningless without the plan manifest")
	}
	if o.loadSnap != "" && (o.file != "" || o.dataset != "") {
		return fmt.Errorf("-load-snapshot replaces -file/-dataset; do not combine them")
	}
	if o.snapshotDir != "" {
		switch {
		case o.file != "" || o.dataset != "" || o.loadSnap != "":
			return fmt.Errorf("-snapshot-dir serves many named graphs; it cannot be combined with -file, -dataset, or -load-snapshot")
		case o.withMCB:
			return fmt.Errorf("-mcb builds a basis for the single default graph; it cannot be combined with -snapshot-dir")
		case o.saveSnap != "":
			return fmt.Errorf("-save-snapshot persists the single default graph; it cannot be combined with -snapshot-dir")
		}
	}
	if o.withMCB && o.loadSnap == "" && o.file == "" && o.dataset == "" {
		return fmt.Errorf("-mcb needs a graph source: give -file, -dataset, or -load-snapshot")
	}
	return nil
}

// loadClusterPlan reads the frontend's plan manifest, exiting with a
// diagnostic on corruption or version skew.
func loadClusterPlan(path string) *shard.Plan {
	f, err := os.Open(path)
	if err != nil {
		cli.Fatalf("oracled", "cluster plan: %v", err)
	}
	defer f.Close()
	p, err := shard.ReadPlan(f)
	if err != nil {
		cli.Fatalf("oracled", "cluster plan %s: %v", path, err)
	}
	return p
}

// splitShardAddrs parses the -cluster-shards list; position i is shard
// i's base URL, so order matters and empty elements are an error.
func splitShardAddrs(s string) []string {
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			cli.Fatalf("oracled", "-cluster-shards has an empty element in %q", s)
		}
		out = append(out, p)
	}
	return out
}

// loadOracleSnapshot restores a served oracle from an oracle snapshot
// file and records the load in reg, exiting with a diagnostic on any
// corruption or version skew.
func loadOracleSnapshot(reg *obs.Registry, path string) *apsp.Oracle {
	f, err := os.Open(path)
	if err != nil {
		cli.Fatalf("oracled", "load snapshot: %v", err)
	}
	defer f.Close()
	o, err := apsp.ReadOracle(f)
	if err != nil {
		cli.Fatalf("oracled", "load snapshot %s: %v", path, err)
	}
	reg.Phases("snapshot").Record("load", o.BuildPhases.Get("snapshot.load"))
	reg.Counter("snapshot.loads").Inc()
	return o
}

// saveOracleSnapshot publishes the oracle snapshot durably, so a serving
// fleet never reads a torn or unsynced one, and records the save in reg:
// its timer covers writing the snapshot, not the fsync and rename.
func saveOracleSnapshot(reg *obs.Registry, path string, o *apsp.Oracle) error {
	var d time.Duration
	if err := snapshot.WriteFile(path, func(f *os.File) error {
		t0 := time.Now()
		_, err := o.WriteTo(f)
		d = time.Since(t0)
		return err
	}); err != nil {
		return err
	}
	reg.Phases("snapshot").Record("save", d)
	reg.Counter("snapshot.saves").Inc()
	return nil
}

// shardProbeInterval is how often a cluster frontend probes each shard
// daemon's /internal/health, so a dead shard shows unhealthy before a
// query runs into it.
const shardProbeInterval = 2 * time.Second

// Listener limits, the same for every boot mode. A peer gets
// readHeaderTimeout to deliver its request line and headers (a stalled or
// slow-loris connection is dropped instead of holding a goroutine and a
// descriptor forever), an idle keep-alive connection is reclaimed after
// idleTimeout, and a header block over maxHeaderBytes is refused with 431
// — every route's parameters fit in a few hundred bytes, so net/http's
// 1 MiB default only serves an attacker. Bodies have their own caps
// (maxBatchBody, maxRowsBody, …); there is deliberately no whole-request
// read or write timeout, which would cut snapshot uploads and NDJSON job
// streams.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
	maxHeaderBytes    = 64 << 10
)

// newHTTPServer wraps h in the hardened listener configuration.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
}

// serve runs srv on ln until ctx is cancelled (SIGTERM/SIGINT), then shuts
// down gracefully: the listener closes immediately, in-flight requests get
// up to drain to finish.
func serve(ctx context.Context, srv *http.Server, ln net.Listener, drain time.Duration) error {
	// Boot's garbage — a snapshot's file image, a build's scratch — is dead
	// by now, in every boot mode. Collecting it here sets the serving heap
	// goal and the first limit of the pacer started just before (pace.go)
	// from what stays resident, not from whatever the last collection during
	// boot found live (a file image plus half-decoded tables, say).
	runtime.GC()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err // listener failed before any signal
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	return srv.Shutdown(sctx)
}
