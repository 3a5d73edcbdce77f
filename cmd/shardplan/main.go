// Command shardplan cuts a built oracle into a serving cluster: it
// assigns the oracle's biconnected blocks to shards along the block-cut
// forest (weight-balanced via internal/partition), then writes one plan
// manifest plus one shard snapshot per shard into the output directory:
//
//	shardplan -load-snapshot oracle.snap -shards 2 -out cluster/
//	shardplan -dataset Planar_1 -scale 0.02 -shards 4 -out cluster/
//
//	cluster/
//	  plan.earplan    checksummed manifest: shard map, graph (the frontend
//	                  derives the BCC partition and block-cut forest from it),
//	                  AP boundary table, content-derived plan epoch
//	  shard-0.snap    graph + shard 0's owned S^r tables
//	  shard-1.snap    ...
//
// All three are the oracle snapshot's layout; each oracled flag refuses
// the other kinds by name.
//
// Serve the result with one oracled per shard plus one frontend:
//
//	oracled -shard-snapshot cluster/shard-0.snap -addr :9090
//	oracled -shard-snapshot cluster/shard-1.snap -addr :9091
//	oracled -cluster-plan cluster/plan.earplan \
//	        -cluster-shards http://localhost:9090,http://localhost:9091
//
// The plan epoch is a checksum of the manifest's content (identical
// inputs and options agree on it without coordination), stamped into
// every shard snapshot; frontend and shards refuse to mix epochs, so a
// half-rolled re-plan degrades into typed 503s instead of wrong answers.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/apsp"
	"repro/internal/cli"
	"repro/internal/par"
	"repro/internal/shard"
	"repro/internal/snapshot"
)

// PlanFileName is the manifest's fixed name inside the output directory.
const PlanFileName = "plan.earplan"

func main() {
	var (
		file     = flag.String("file", "", "graph file (.mtx, .gr, .earg snapshot, or edge list)")
		dataset  = flag.String("dataset", "", "named synthetic dataset")
		scale    = flag.Float64("scale", 0.03, "dataset scale")
		seed     = flag.Uint64("seed", 1, "dataset seed")
		workers  = flag.Int("workers", par.Workers(), "parallel workers for the oracle build")
		loadSnap = flag.String("load-snapshot", "", "plan from an oracle snapshot instead of building (replaces -file/-dataset)")
		shards   = flag.Int("shards", 2, "number of shards to cut the graph into")
		outDir   = flag.String("out", "", "output directory for the plan manifest and shard snapshots (required)")
	)
	cli.SetUsage("shardplan", "[-file graph | -dataset name | -load-snapshot file] -shards N -out dir [flags]")
	flag.Parse()

	if *outDir == "" {
		cli.BadUsage("shardplan", "-out is required")
	}
	if *loadSnap != "" && (*file != "" || *dataset != "") {
		cli.BadUsage("shardplan", "-load-snapshot replaces -file/-dataset; do not combine them")
	}

	var o *apsp.Oracle
	if *loadSnap != "" {
		f, err := os.Open(*loadSnap)
		if err != nil {
			cli.Fatalf("shardplan", "load snapshot: %v", err)
		}
		o, err = apsp.ReadOracle(f)
		f.Close()
		if err != nil {
			cli.Fatalf("shardplan", "load snapshot %s: %v", *loadSnap, err)
		}
		fmt.Fprintf(os.Stderr, "shardplan: snapshot %s (%d vertices, %d edges)\n",
			*loadSnap, o.G.NumVertices(), o.G.NumEdges())
	} else {
		g, name, err := cli.LoadInput(*file, *dataset, *scale, *seed)
		if err != nil {
			cli.Exit("shardplan", err)
		}
		start := time.Now()
		o = apsp.NewOracleParallel(g, *workers)
		fmt.Fprintf(os.Stderr, "shardplan: graph %s (%d vertices, %d edges), oracle built in %v\n",
			name, g.NumVertices(), g.NumEdges(), time.Since(start))
	}

	p, err := shard.PlanShards(o, shard.PlanOptions{Shards: *shards})
	if err != nil {
		cli.Fatalf("shardplan", "%v", err)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		cli.Fatalf("shardplan", "%v", err)
	}
	planPath := filepath.Join(*outDir, PlanFileName)
	if err := snapshot.WriteFile(planPath, func(f *os.File) error {
		_, err := p.WriteTo(f)
		return err
	}); err != nil {
		cli.Fatalf("shardplan", "write plan: %v", err)
	}
	fmt.Fprintf(os.Stderr, "shardplan: plan epoch %d: %d blocks over %d shards → %s\n",
		p.Epoch, p.NumBlocks(), p.NumShards, planPath)

	for sid := int32(0); sid < p.NumShards; sid++ {
		snapPath := filepath.Join(*outDir, fmt.Sprintf("shard-%d.snap", sid))
		meta := apsp.ShardMeta{Epoch: p.Epoch, Shard: sid, NumShards: p.NumShards}
		if err := snapshot.WriteFile(snapPath, func(f *os.File) error {
			_, err := o.WriteShardSnapshot(f, meta, p.OwnedMask(sid))
			return err
		}); err != nil {
			cli.Fatalf("shardplan", "write shard %d: %v", sid, err)
		}
		fmt.Fprintf(os.Stderr, "shardplan: shard %d: %d blocks → %s\n",
			sid, p.ShardBlockCount(sid), snapPath)
	}
}
