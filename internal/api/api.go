// Package api is the declarative /v1 HTTP surface — the route table and
// the JSON body types its ops declare — and the single source of truth
// its two consumers share so they cannot drift: cmd/oracled mounts its
// mux by looping over Routes (one "METHOD path" pattern per op, plus the
// table-derived 405 fallback that enforces the method set) and encodes
// and decodes only the types declared here, and the checked-in
// api/openapi.yaml is generated from both (cmd/apigen; CI diffs the two),
// each body schema derived by reflection from its type's json tags.
// Editing a route here is the only way to add an endpoint: an op without
// a handler binding, or a binding without an op, stops the daemon at
// boot, and hand-editing the YAML fails CI.
package api

import (
	"encoding/json"

	"repro/internal/jobs"
)

// Param is one documented query parameter.
type Param struct {
	Name     string
	Type     string // OpenAPI schema type: "integer" | "string"
	Desc     string
	Required bool
}

// Op is one method on a route.
type Op struct {
	Method  string // GET | POST | PUT | DELETE
	Summary string
	Params  []Param
	// Body is a zero value of the request body's type (nil = no body; a
	// []byte is a raw application/octet-stream upload).
	Body any
	// Response is a zero value of the success body's type. Streaming ops
	// set NDJSON instead.
	Response any
	NDJSON   bool
	// Accepted marks ops whose success status is 202 rather than 200.
	Accepted bool
}

// Route is one path of the /v1 surface.
type Route struct {
	// Path is the /v1 mux pattern, e.g. "/v1/jobs/{id}".
	Path string
	Ops  []Op
	// GraphScoped routes are additionally mounted per tenant at
	// Scoped(Path), sharing the same handler; the bare Path is the
	// default graph's spelling.
	GraphScoped bool
}

// Scoped returns the per-tenant spelling of a graph-scoped route's path:
// "/v1/distance" → "/v1/graphs/{name}/distance".
func Scoped(path string) string { return "/v1/graphs/{name}" + path[len("/v1"):] }

// Routes returns the full /v1 route table.
func Routes() []Route {
	uv := []Param{
		{Name: "u", Type: "integer", Desc: "source vertex id", Required: true},
		{Name: "v", Type: "integer", Desc: "target vertex id", Required: true},
	}
	pageParams := []Param{
		{Name: "cursor", Type: "string", Desc: "opaque keyset cursor from next_cursor; empty for the first page"},
		{Name: "limit", Type: "integer", Desc: "page size, 1..1000 (default 100)"},
	}
	return []Route{
		{
			Path: "/v1/distance", GraphScoped: true,
			Ops: []Op{{Method: "GET", Summary: "Shortest-path distance between two vertices", Params: uv, Response: PairResponse{}}},
		},
		{
			Path: "/v1/path", GraphScoped: true,
			Ops: []Op{{Method: "GET", Summary: "Shortest path between two vertices", Params: uv, Response: PathResponse{}}},
		},
		{
			Path: "/v1/batch", GraphScoped: true,
			Ops: []Op{{Method: "POST", Summary: "Synchronous many-to-many distance matrix", Body: BatchRequest{}, Response: BatchResponse{}}},
		},
		{
			Path: "/v1/mcb/cycle", GraphScoped: true,
			Ops: []Op{{Method: "GET", Summary: "One cycle of the minimum cycle basis",
				Params:   []Param{{Name: "i", Type: "integer", Desc: "cycle index in the basis", Required: true}},
				Response: CycleResponse{}}},
		},
		{
			Path: "/v1/deltas", GraphScoped: true,
			Ops: []Op{{Method: "POST", Summary: "Apply an ordered edge-delta script to the live graph", Body: DeltaRequest{}, Response: DeltaResponse{}}},
		},
		{
			Path: "/v1/graphs",
			Ops:  []Op{{Method: "GET", Summary: "List known graphs (cursor-paginated)", Params: pageParams, Response: GraphListResponse{}}},
		},
		{
			Path: "/v1/graphs/{name}",
			Ops: []Op{
				{Method: "GET", Summary: "One graph's lifecycle state and scoped metrics", Response: GraphDetailResponse{}},
				{Method: "PUT", Summary: "Upload or atomically replace the graph's snapshot", Body: []byte(nil), Response: RegisterResponse{}},
				{Method: "DELETE", Summary: "Unregister the graph and delete its snapshot", Response: RemoveResponse{}},
			},
		},
		{
			Path: "/v1/cluster",
			Ops: []Op{{Method: "GET", Summary: "Cluster plan identity and shard health (cursor-paginated)",
				Params: pageParams, Response: ClusterResponse{}}},
		},
		{
			Path: "/v1/cluster/shards/{id}",
			Ops: []Op{{Method: "GET", Summary: "One shard's address, health, and block ownership",
				Response: ShardDetailResponse{}}},
		},
		{
			Path: "/v1/jobs",
			Ops: []Op{
				{Method: "GET", Summary: "List jobs (cursor-paginated)", Params: pageParams, Response: JobListResponse{}},
				{Method: "POST", Summary: "Submit an async job (batch_matrix or bc)", Body: jobs.Spec{}, Response: jobs.Status{}, Accepted: true},
			},
		},
		{
			Path: "/v1/jobs/{id}",
			Ops: []Op{
				{Method: "GET", Summary: "Job status: state, progress fraction, row counters", Response: jobs.Status{}},
				{Method: "DELETE", Summary: "Cancel the job (idempotent on terminal jobs)", Response: jobs.Status{}},
			},
		},
		{
			Path: "/v1/jobs/{id}/results",
			Ops: []Op{{Method: "GET", Summary: "Stream job results as NDJSON, resumable by byte offset",
				Params: []Param{{Name: "offset", Type: "integer", Desc: "durable byte offset to resume from (also accepted as Last-Event-ID header)"}},
				NDJSON: true}},
		},
		{
			Path: "/v1/healthz",
			Ops:  []Op{{Method: "GET", Summary: "Liveness and serving summary", Response: HealthResponse{}}},
		},
		{
			Path: "/v1/stats",
			Ops:  []Op{{Method: "GET", Summary: "All metrics as one JSON object", Response: json.RawMessage(nil)}},
		},
	}
}
