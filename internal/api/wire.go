package api

import (
	"encoding/json"

	"repro/internal/graph"
	"repro/internal/jobs"
	"repro/internal/registry"
	"repro/internal/shard"
)

// The JSON bodies of the /v1 surface. The route table names one of these
// per op, OpenAPI derives each component schema from its json tags (a
// doc tag is the property's description), and cmd/oracled encodes and
// decodes exactly these types, so the published schema is the struct.

// ErrorEnvelope is the uniform JSON error body every endpoint returns.
// ShardID is a pointer so shard 0 serialises while non-shard errors omit
// the field.
type ErrorEnvelope struct {
	Error        string `json:"error" doc:"human-readable message"`
	Code         string `json:"code" doc:"stable machine-readable code (bad_request, not_found, overloaded, job_not_found, job_cancelled, job_failed, shard_unavailable, plan_epoch_mismatch, ...)"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty" doc:"present only on back-pressure responses"`
	JobID        string `json:"job_id,omitempty" doc:"present on job-scoped errors"`
	ShardID      *int32 `json:"shard_id,omitempty" doc:"present on shard-scoped errors from a cluster frontend (shard_unavailable, plan_epoch_mismatch)"`
}

// HealthResponse is GET /v1/healthz.
type HealthResponse struct {
	Status   string `json:"status"`
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
	MCB      bool   `json:"mcb"`
	Graphs   int    `json:"graphs,omitempty"`
}

// PairResponse is GET /v1/distance. Distance is a pointer so an
// unreachable pair omits the field while a zero distance serialises.
type PairResponse struct {
	U         int32         `json:"u"`
	V         int32         `json:"v"`
	Reachable bool          `json:"reachable"`
	Distance  *graph.Weight `json:"distance,omitempty" doc:"omitted when unreachable"`
}

// PathResponse is GET /v1/path: the pair plus its vertex walk.
type PathResponse struct {
	PairResponse
	Path []int32 `json:"path,omitempty"`
}

// BatchRequest is the POST /v1/batch body.
type BatchRequest struct {
	Sources []int32 `json:"sources"`
	Targets []int32 `json:"targets"`
}

// BatchResponse is POST /v1/batch's distance matrix.
type BatchResponse struct {
	Sources   int         `json:"sources"`
	Targets   int         `json:"targets"`
	Distances [][]float64 `json:"distances" doc:"row-major matrix; unreachable pairs are -1"`
}

// CycleResponse is GET /v1/mcb/cycle.
type CycleResponse struct {
	Index    int          `json:"index"`
	Dim      int          `json:"dim"`
	Weight   graph.Weight `json:"weight"`
	Edges    [][2]int32   `json:"edges"`
	Vertices []int32      `json:"vertices"`
}

// DeltaRecord is one edge delta. Fields are pointers so a missing field
// is distinguishable from a legal zero (edge 0, weight 0).
type DeltaRecord struct {
	Op     string   `json:"op" doc:"weight | insert | delete"`
	Edge   *int32   `json:"edge,omitempty"`
	U      *int32   `json:"u,omitempty"`
	V      *int32   `json:"v,omitempty"`
	Weight *float64 `json:"weight,omitempty"`
}

// DeltaRequest is the POST /v1/deltas body.
type DeltaRequest struct {
	Deltas []DeltaRecord `json:"deltas" doc:"ordered edge-delta script"`
}

// DeltaResponse is POST /v1/deltas's result. MCBInvalidated omits itself
// unless a basis was actually dropped.
type DeltaResponse struct {
	Applied         int  `json:"applied"`
	TouchedBlocks   int  `json:"touched_blocks" doc:"blocks whose ear reduction and table were recomputed"`
	ReusedBlocks    int  `json:"reused_blocks" doc:"blocks carried over unchanged"`
	RebuildFallback bool `json:"rebuild_fallback" doc:"the script inserted or deleted an edge, so the block partition was recomputed"`
	Vertices        int  `json:"vertices"`
	Edges           int  `json:"edges"`
	MCBInvalidated  bool `json:"mcb_invalidated,omitempty" doc:"present when the apply dropped the default graph's cycle basis"`
}

// GraphListResponse is GET /v1/graphs: one cursor page of known graphs,
// resident or cold.
type GraphListResponse struct {
	Items      []registry.GraphInfo `json:"items"`
	NextCursor string               `json:"next_cursor,omitempty" doc:"empty/absent on the last page"`
	Total      int                  `json:"total"`
	MaxGraphs  int                  `json:"max_graphs"`
}

// GraphDetailResponse is GET /v1/graphs/{name}: the graph's lifecycle row
// plus its scoped metrics.
type GraphDetailResponse struct {
	registry.GraphInfo
	Stats json.RawMessage `json:"stats" doc:"the graph's scoped metrics"`
}

// RegisterResponse is PUT /v1/graphs/{name}: the validated snapshot's
// dimensions.
type RegisterResponse struct {
	Name     string `json:"name"`
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
}

// RemoveResponse is DELETE /v1/graphs/{name}.
type RemoveResponse struct {
	Name    string `json:"name"`
	Removed bool   `json:"removed"`
}

// JobListResponse is GET /v1/jobs: one cursor page of jobs.
type JobListResponse struct {
	Items      []jobs.Status `json:"items"`
	NextCursor string        `json:"next_cursor,omitempty" doc:"empty/absent on the last page"`
	Total      int           `json:"total"`
}

// ClusterResponse is GET /v1/cluster: the plan's identity plus one cursor
// page of shard statuses.
type ClusterResponse struct {
	Epoch      uint64              `json:"epoch" doc:"plan epoch the frontend routes and stitches by"`
	NumShards  int32               `json:"num_shards"`
	Blocks     int                 `json:"blocks" doc:"biconnected blocks in the plan"`
	Vertices   int                 `json:"vertices"`
	Items      []shard.ShardStatus `json:"items"`
	NextCursor string              `json:"next_cursor,omitempty" doc:"empty/absent on the last page"`
	Total      int                 `json:"total" doc:"total shard count"`
}

// ShardDetailResponse is GET /v1/cluster/shards/{id}: one shard's status
// plus the plan epoch the frontend routes by.
type ShardDetailResponse struct {
	shard.ShardStatus
	Epoch uint64 `json:"epoch" doc:"plan epoch the frontend routes by"`
}
