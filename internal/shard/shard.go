// Package shard splits one oracle across processes along the block-cut
// forest — the "millions of users" serving tier: N shard daemons each
// hold the S^r tables of a subset of blocks, and one frontend stitches
// their in-block answers at articulation points into whole-graph distance
// rows that are byte-identical to the monolith's.
//
// Why the block-cut forest is the shard boundary: a shortest path
// between two vertices of one biconnected component never leaves it, and
// every path across components threads through articulation points whose
// pairwise distances live in the a×a table A. So the only state a whole-
// graph row needs from block b is one in-block row — from the source if
// the source lies on b, else from b's gateway cut vertex — and the
// frontend can hold the graph, its BCC partition and the (small) A table
// while the (large) per-block tables stay sharded. This is the Urakov–
// Timeryaev disassembly/assembly structure (PAPERS.md) applied to
// serving rather than construction.
//
// The pieces:
//
//   - PlanShards cuts a built oracle into a Plan: block→shard assignment
//     (balanced by table weight via internal/partition) and a
//     content-derived plan epoch.
//   - Plan.WriteTo / ReadPlan persist the plan manifest and
//     apsp.WriteShardSnapshot carves the per-shard snapshots, all in the
//     oracle snapshot's container layout. ReadPlan loads an oracle
//     without block tables, assembled by the code that assembles the
//     monolith's.
//   - Handler serves POST /internal/rows on a shard daemon: batched
//     per-block distance rows, plan-epoch validated, binary response so
//     Inf and exact float bits survive the wire.
//   - RemoteSource is the frontend's fan-out qe.CtxRowSource: it runs
//     apsp's stitch kernel — the same code behind the monolith's Row —
//     on the plan's table-less oracle, supplying block rows from shard owners over
//     HTTP (bounded retries with backoff, per-shard health), and surfaces
//     outages as typed errors instead of wrong answers.
package shard

import (
	"errors"
	"fmt"
)

// Typed failures of the fan-out path. The serving layer matches them
// with errors.Is and maps both to 503 + Retry-After.
var (
	// ErrShardUnavailable reports that a shard owning rows needed by the
	// query could not be reached after the configured retries.
	ErrShardUnavailable = errors.New("shard: shard unavailable")
	// ErrEpochMismatch reports that a shard is serving a different plan
	// epoch than the frontend's manifest — a deployment skew, not a
	// transient fault; retrying the same shard cannot help.
	ErrEpochMismatch = errors.New("shard: plan epoch mismatch")
)

// Error wraps a fan-out failure with the shard it happened on, so the
// HTTP layer can put shard_id in the error envelope. It matches
// errors.Is(err, ErrShardUnavailable) / errors.Is(err, ErrEpochMismatch)
// through Unwrap.
type Error struct {
	Shard int32
	Addr  string
	Err   error
}

func (e *Error) Error() string {
	return fmt.Sprintf("shard %d (%s): %v", e.Shard, e.Addr, e.Err)
}

func (e *Error) Unwrap() error { return e.Err }
