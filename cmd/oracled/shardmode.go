package main

import (
	"context"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"repro/internal/apsp"
	"repro/internal/cli"
	"repro/internal/obs"
	"repro/internal/shard"
)

// runShardMode serves one cluster shard: the internal row RPC
// (POST /internal/rows, GET /internal/health) over a shard snapshot
// written by cmd/shardplan, plus the standard debug surface. It mounts
// its own minimal mux — none of the /v1 routes exist here, because a
// shard daemon holds only its owned blocks and cannot answer whole-graph
// queries; that is the frontend's job.
func runShardMode(ctx context.Context, reg *obs.Registry, addr, path string, drain time.Duration) {
	f, err := os.Open(path)
	if err != nil {
		cli.Fatalf("oracled", "shard snapshot: %v", err)
	}
	sb, err := apsp.ReadShardSnapshot(f)
	f.Close()
	if err != nil {
		cli.Fatalf("oracled", "shard snapshot %s: %v", path, err)
	}
	meta := sb.Meta()
	fmt.Fprintf(os.Stderr, "oracled: shard %d/%d of plan epoch %d: %d/%d blocks owned, %d vertices\n",
		meta.Shard, meta.NumShards, meta.Epoch, sb.OwnedBlocks(), sb.NumBlocks(), sb.NumVertices())

	mux := http.NewServeMux()
	shard.NewHandler(sb).Register(mux)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		cli.Fatalf("oracled", "listen: %v", err)
	}
	srv := newHTTPServer(mux)
	fmt.Printf("oracled: shard %d serving on http://%s\n", meta.Shard, ln.Addr())
	startPacer(reg, os.Getenv)
	if err := serve(ctx, srv, ln, drain); err != nil {
		cli.Fatalf("oracled", "%v", err)
	}
	fmt.Fprintln(os.Stderr, "oracled: shard drained, bye")
}
