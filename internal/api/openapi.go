package api

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// OpenAPI renders the route table as an OpenAPI 3.0 document in YAML.
// The output is deterministic — same table, same bytes — which is what
// lets tier-1 compare it with the checked-in api/openapi.yaml instead of
// trusting anyone to hand-sync the two. The emitter is deliberately tiny
// (the repo takes no YAML dependency): two-space indentation, double-
// quoted scalars, keys sorted where the source order isn't meaningful.
func OpenAPI() []byte {
	var b strings.Builder
	w := func(indent int, format string, args ...interface{}) {
		b.WriteString(strings.Repeat("  ", indent))
		fmt.Fprintf(&b, format, args...)
		b.WriteByte('\n')
	}
	q := strconv.Quote

	w(0, "# Generated from internal/api (go run ./cmd/apigen -out api/openapi.yaml).")
	w(0, "# Do not edit by hand: CI regenerates and diffs this file.")
	w(0, "openapi: 3.0.3")
	w(0, "info:")
	w(1, "title: %s", q("oracled — ear-decomposition shortest path/cycle oracle"))
	w(1, "description: %s", q("Versioned /v1 HTTP API: point and batch shortest-path queries, "+
		"minimum-cycle-basis access, live edge deltas, multi-tenant graph administration, and the "+
		"async job tier (batch_matrix and bc jobs with resumable NDJSON result streams)."))
	w(1, "version: %s", q("1"))
	w(0, "paths:")

	type mount struct {
		path   string
		rt     Route
		scoped bool
	}
	var mounts []mount
	for _, rt := range Routes() {
		mounts = append(mounts, mount{path: rt.Path, rt: rt})
		if rt.GraphScoped {
			mounts = append(mounts, mount{path: Scoped(rt.Path), rt: rt, scoped: true})
		}
	}
	sort.Slice(mounts, func(i, j int) bool { return mounts[i].path < mounts[j].path })

	for _, mt := range mounts {
		w(1, "%s:", mt.path)
		for _, op := range mt.rt.Ops {
			w(2, "%s:", strings.ToLower(op.Method))
			summary := op.Summary
			if mt.scoped {
				summary += " (named graph)"
			}
			w(3, "summary: %s", q(summary))
			w(3, "operationId: %s", q(opID(op.Method, mt.path)))
			params := pathParams(mt.path)
			if len(params)+len(op.Params) > 0 {
				w(3, "parameters:")
				for _, name := range params {
					w(4, "- name: %s", q(name))
					w(5, "in: path")
					w(5, "required: true")
					w(5, "schema:")
					w(6, "type: string")
				}
				for _, p := range op.Params {
					w(4, "- name: %s", q(p.Name))
					w(5, "in: query")
					if p.Required {
						w(5, "required: true")
					}
					w(5, "description: %s", q(p.Desc))
					w(5, "schema:")
					w(6, "type: %s", p.Type)
				}
			}
			if op.Body != "" {
				w(3, "requestBody:")
				w(4, "required: true")
				w(4, "content:")
				if op.Body == "SnapshotUpload" {
					w(5, "application/octet-stream:")
					w(6, "schema:")
					w(7, "type: string")
					w(7, "format: binary")
				} else {
					w(5, "application/json:")
					w(6, "schema:")
					w(7, "$ref: %s", q("#/components/schemas/"+op.Body))
				}
			}
			w(3, "responses:")
			status := "200"
			if op.Accepted {
				status = "202"
			}
			w(4, "%s:", q(status))
			switch {
			case op.NDJSON:
				w(5, "description: %s", q("newline-delimited JSON result rows; resume with the byte offset of the next row"))
				w(5, "content:")
				w(6, "application/x-ndjson:")
				w(7, "schema:")
				w(8, "type: string")
			case op.Response != "":
				w(5, "description: success")
				w(5, "content:")
				w(6, "application/json:")
				w(7, "schema:")
				w(8, "$ref: %s", q("#/components/schemas/"+op.Response))
			default:
				w(5, "description: success")
				w(5, "content:")
				w(6, "application/json:")
				w(7, "schema:")
				w(8, "type: object")
			}
			w(4, "default:")
			w(5, "description: %s", q("uniform error envelope"))
			w(5, "content:")
			w(6, "application/json:")
			w(7, "schema:")
			w(8, "$ref: %s", q("#/components/schemas/ErrorEnvelope"))
		}
	}

	w(0, "components:")
	w(1, "schemas:")
	names := make([]string, 0, len(schemas))
	for name := range schemas {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		w(2, "%s:", name)
		w(3, "type: object")
		props := schemas[name]
		if len(props) == 0 {
			continue
		}
		w(3, "properties:")
		for _, p := range props {
			w(4, "%s:", p.name)
			w(5, "type: %s", p.typ)
			if p.desc != "" {
				w(5, "description: %s", q(p.desc))
			}
			if p.items != "" {
				w(5, "items:")
				if strings.HasPrefix(p.items, "#") {
					w(6, "$ref: %s", q(p.items))
				} else {
					w(6, "type: %s", p.items)
				}
			}
		}
	}
	return []byte(b.String())
}

// opID derives a unique operationId: method + path with separators
// camel-ready and parameters inlined ("get_v1_jobs_id_results").
func opID(method, path string) string {
	s := strings.NewReplacer("/", "_", "{", "", "}", "", "-", "_").Replace(strings.Trim(path, "/"))
	return strings.ToLower(method) + "_" + s
}

// pathParams extracts {param} segments in order.
func pathParams(path string) []string {
	var out []string
	for _, seg := range strings.Split(path, "/") {
		if strings.HasPrefix(seg, "{") && strings.HasSuffix(seg, "}") {
			out = append(out, seg[1:len(seg)-1])
		}
	}
	return out
}

type prop struct{ name, typ, desc, items string }

// schemas documents the wire shapes. Property lists mirror the Go structs
// in cmd/oracled and internal/jobs; they are documentation-grade (types
// and intent), not exhaustive validators.
var schemas = map[string][]prop{
	"ErrorEnvelope": {
		{name: "error", typ: "string", desc: "human-readable message"},
		{name: "code", typ: "string", desc: "stable machine-readable code (bad_request, not_found, overloaded, job_not_found, job_cancelled, job_failed, shard_unavailable, plan_epoch_mismatch, ...)"},
		{name: "retry_after_ms", typ: "integer", desc: "present only on back-pressure responses"},
		{name: "job_id", typ: "string", desc: "present on job-scoped errors"},
		{name: "shard_id", typ: "integer", desc: "present on shard-scoped errors from a cluster frontend (shard_unavailable, plan_epoch_mismatch)"},
	},
	"PairResponse": {
		{name: "u", typ: "integer"},
		{name: "v", typ: "integer"},
		{name: "reachable", typ: "boolean"},
		{name: "distance", typ: "number", desc: "omitted when unreachable"},
	},
	"PathResponse": {
		{name: "u", typ: "integer"},
		{name: "v", typ: "integer"},
		{name: "reachable", typ: "boolean"},
		{name: "distance", typ: "number"},
		{name: "path", typ: "array", items: "integer"},
	},
	"BatchRequest": {
		{name: "sources", typ: "array", items: "integer"},
		{name: "targets", typ: "array", items: "integer"},
	},
	"BatchResponse": {
		{name: "sources", typ: "integer"},
		{name: "targets", typ: "integer"},
		{name: "distances", typ: "array", desc: "row-major matrix; unreachable pairs are -1", items: "array"},
	},
	"CycleResponse": {
		{name: "index", typ: "integer"},
		{name: "dim", typ: "integer"},
		{name: "weight", typ: "number"},
		{name: "edges", typ: "array", items: "array"},
		{name: "vertices", typ: "array", items: "integer"},
	},
	"DeltaRequest": {
		{name: "deltas", typ: "array", desc: "ordered edge-delta script (op: weight|insert|delete)", items: "object"},
	},
	"DeltaResponse": {
		{name: "applied", typ: "integer"},
		{name: "blocks_rebuilt", typ: "integer"},
		{name: "rows_invalidated", typ: "integer"},
		{name: "vertices", typ: "integer"},
		{name: "edges", typ: "integer"},
	},
	"GraphListResponse": {
		{name: "items", typ: "array", items: "#/components/schemas/GraphInfo"},
		{name: "next_cursor", typ: "string", desc: "empty/absent on the last page"},
		{name: "total", typ: "integer"},
		{name: "max_graphs", typ: "integer"},
	},
	"GraphInfo": {
		{name: "name", typ: "string"},
		{name: "state", typ: "string", desc: "cold | hydrating | live"},
		{name: "pinned", typ: "boolean"},
		{name: "refs", typ: "integer"},
		{name: "vertices", typ: "integer"},
		{name: "edges", typ: "integer"},
	},
	"GraphDetailResponse": {
		{name: "name", typ: "string"},
		{name: "state", typ: "string"},
		{name: "pinned", typ: "boolean"},
		{name: "refs", typ: "integer"},
		{name: "vertices", typ: "integer"},
		{name: "edges", typ: "integer"},
		{name: "stats", typ: "object", desc: "the graph's scoped metrics"},
	},
	"RegisterResponse": {
		{name: "name", typ: "string"},
		{name: "vertices", typ: "integer"},
		{name: "edges", typ: "integer"},
	},
	"RemoveResponse": {
		{name: "name", typ: "string"},
		{name: "removed", typ: "boolean"},
	},
	"HealthResponse": {
		{name: "status", typ: "string"},
		{name: "vertices", typ: "integer"},
		{name: "edges", typ: "integer"},
		{name: "mcb", typ: "boolean"},
		{name: "graphs", typ: "integer"},
	},
	"SnapshotUpload": nil,
	"JobSpec": {
		{name: "kind", typ: "string", desc: "batch_matrix | bc"},
		{name: "graph", typ: "string", desc: "registry graph name; defaults to the pinned default graph"},
		{name: "sources", typ: "array", desc: "batch_matrix: source vertices (empty = all)", items: "integer"},
		{name: "targets", typ: "array", desc: "batch_matrix: target vertices (empty = all)", items: "integer"},
		{name: "samples", typ: "integer", desc: "bc: sampled source count (0 = exact)"},
		{name: "seed", typ: "integer", desc: "bc: sampling seed"},
	},
	"JobStatus": {
		{name: "id", typ: "string"},
		{name: "kind", typ: "string"},
		{name: "graph", typ: "string"},
		{name: "state", typ: "string", desc: "pending | running | completed | failed | cancelled"},
		{name: "progress", typ: "number", desc: "done/total in [0,1]"},
		{name: "done", typ: "integer"},
		{name: "total", typ: "integer"},
		{name: "rows", typ: "integer", desc: "durable NDJSON result rows"},
		{name: "results_bytes", typ: "integer", desc: "durable result bytes; valid resume offset"},
		{name: "error", typ: "string", desc: "terminal error (state failed)"},
		{name: "created_unix", typ: "integer"},
		{name: "updated_unix", typ: "integer"},
	},
	"JobListResponse": {
		{name: "items", typ: "array", items: "#/components/schemas/JobStatus"},
		{name: "next_cursor", typ: "string", desc: "empty/absent on the last page"},
		{name: "total", typ: "integer"},
	},
	"ClusterResponse": {
		{name: "epoch", typ: "integer", desc: "plan epoch the frontend routes and stitches by"},
		{name: "num_shards", typ: "integer"},
		{name: "blocks", typ: "integer", desc: "biconnected blocks in the plan"},
		{name: "vertices", typ: "integer"},
		{name: "items", typ: "array", items: "#/components/schemas/ShardStatus"},
		{name: "next_cursor", typ: "string", desc: "empty/absent on the last page"},
		{name: "total", typ: "integer", desc: "total shard count"},
	},
	"ShardStatus": {
		{name: "id", typ: "integer"},
		{name: "addr", typ: "string", desc: "shard daemon base URL"},
		{name: "healthy", typ: "boolean", desc: "from fetch outcomes and the active prober"},
		{name: "blocks", typ: "integer", desc: "blocks this shard owns"},
		{name: "last_error", typ: "string", desc: "last failure observed against this shard; absent when healthy"},
	},
	"ShardDetailResponse": {
		{name: "id", typ: "integer"},
		{name: "addr", typ: "string"},
		{name: "healthy", typ: "boolean"},
		{name: "blocks", typ: "integer"},
		{name: "last_error", typ: "string"},
		{name: "epoch", typ: "integer", desc: "plan epoch the frontend routes by"},
	},
}
