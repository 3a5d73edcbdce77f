package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"math"
	"net/http"
	"net/http/pprof"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/apsp"
	"repro/internal/graph"
	"repro/internal/jobs"
	"repro/internal/mcb"
	"repro/internal/obs"
	"repro/internal/qe"
	"repro/internal/registry"
	"repro/internal/shard"
)

// maxBatchBody bounds one /v1/batch request's JSON body; the N×M result
// cells it may demand are bounded by the engine's pair cap, whose typed
// ErrBatchTooLarge maps to 400 below.
const maxBatchBody = 8 << 20

// maxSnapshotBody bounds one PUT /v1/graphs/{name} snapshot upload.
const maxSnapshotBody = 1 << 30

// server is the HTTP face of a graph registry. Every query route is
// graph-scoped: /v1/graphs/{name}/x resolves its graph by path, and the
// bare /v1/x spelling — the same handler, with no {name} to read — is the
// reserved "default" graph (the one built from -file/-dataset/
// -load-snapshot). Handlers hold a registry reference for the duration of
// one request, so an eviction or snapshot replacement never cuts a
// request off mid-answer — the displaced oracle/engine pair keeps
// answering the requests that hold it.
type server struct {
	registry *registry.Registry

	// jobs is the async tier (nil on daemons started without -jobs-dir;
	// the /v1/jobs routes then answer 503 unavailable).
	jobs *jobs.Manager

	// cluster is the frontend's fan-out row source (nil on daemons that
	// are not cluster frontends; the /v1/cluster routes then answer 503
	// unavailable). Set once via enableCluster before serving starts.
	cluster *shard.RemoteSource

	// mu guards basis (pointer swap only). The basis describes the
	// default graph as built at boot; a successful delta apply against
	// the default graph invalidates it.
	mu    sync.RWMutex
	basis *mcb.Result

	// savePath is -save-snapshot's file: written at boot, then rewritten
	// with the post-delta oracle before every default-graph apply swaps in.
	savePath string

	reg *obs.Registry
	mux *http.ServeMux
}

// newServer binds every op of the route table to its handler. The keys
// are "METHOD path" exactly as api.Routes spells them; mountRoutes turns
// the table plus these bindings into the mux, so this map is the only
// place a /v1 pattern is written down in the daemon.
func newServer(rg *registry.Registry, basis *mcb.Result, jm *jobs.Manager, reg *obs.Registry) *server {
	s := &server{registry: rg, basis: basis, jobs: jm, reg: reg, mux: http.NewServeMux()}
	mountRoutes(s.mux, api.Routes(), map[string]http.Handler{
		"GET /v1/distance":         s.handle("distance", s.withGraph(s.distance)),
		"GET /v1/path":             s.handle("path", s.withGraph(s.path)),
		"POST /v1/batch":           s.handle("batch", s.withGraph(s.batch)),
		"GET /v1/mcb/cycle":        s.handle("mcb.cycle", s.withGraph(s.mcbCycle)),
		"POST /v1/deltas":          s.handle("deltas", s.withGraph(s.deltas)),
		"GET /v1/graphs":           s.handle("graphs", s.graphsList),
		"GET /v1/graphs/{name}":    s.handle("graphs.admin", s.graphInfo),
		"PUT /v1/graphs/{name}":    s.handle("graphs.admin", s.graphRegister),
		"DELETE /v1/graphs/{name}": s.handle("graphs.admin", s.graphRemove),
		"GET /v1/jobs":             s.handle("jobs", s.jobsList),
		"POST /v1/jobs":            s.handle("jobs", s.jobSubmit),
		"GET /v1/jobs/{id}":        s.handle("jobs.job", s.jobStatus),
		"DELETE /v1/jobs/{id}":     s.handle("jobs.job", s.jobCancel),
		// Results streaming bypasses handle()'s buffered JSON path — it
		// writes NDJSON incrementally and flushes as rows land.
		"GET /v1/jobs/{id}/results":   http.HandlerFunc(s.jobResults),
		"GET /v1/cluster":             s.handle("cluster", s.clusterList),
		"GET /v1/cluster/shards/{id}": s.handle("cluster.shard", s.clusterShard),
		"GET /v1/healthz":             s.handle("healthz", s.healthz),
		"GET /v1/stats":               s.handle("stats", s.stats),
	}, reg.Counter("oracled.method_not_allowed"))

	s.mux.Handle("/debug/vars", expvar.Handler())
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// mountRoutes is the one mux maker: each op of the table is mounted as
// "METHOD path" (Go 1.22 method patterns) with the handler bound to it,
// a graph-scoped route at both its spellings with the same handler
// instance, and every path additionally gets the method-less fallback
// that answers whatever the table does not list with the uniform 405
// envelope and an Allow header — so the method set is enforced by the
// table, never by a handler. It panics on an op with no binding or a
// binding with no op: a table edit that forgot its handler (or the
// reverse) stops the daemon at boot instead of serving a drifted
// surface. binds is consumed.
func mountRoutes(mux *http.ServeMux, routes []api.Route, binds map[string]http.Handler, rejected *obs.Counter) {
	for _, rt := range routes {
		paths := []string{rt.Path}
		if rt.GraphScoped {
			paths = append(paths, api.Scoped(rt.Path))
		}
		methods := make([]string, len(rt.Ops))
		for i, op := range rt.Ops {
			methods[i] = op.Method
			key := op.Method + " " + rt.Path
			h, ok := binds[key]
			if !ok {
				panic("oracled: route table op " + key + " has no handler binding")
			}
			delete(binds, key)
			for _, p := range paths {
				mux.Handle(op.Method+" "+p, h)
			}
		}
		allow := strings.Join(methods, ", ")
		for _, p := range paths {
			mux.HandleFunc(p, func(w http.ResponseWriter, r *http.Request) {
				rejected.Inc()
				w.Header().Set("Allow", allow)
				writeError(w, &httpError{status: http.StatusMethodNotAllowed,
					err: fmt.Errorf("%s: method not allowed (allow: %s)", r.URL.Path, allow)})
			})
		}
	}
	for key := range binds {
		panic("oracled: handler bound to " + key + ", which the route table does not list")
	}
}

// withGraph adapts a graph-scoped endpoint into the plain handler shape:
// read the graph name from the path (the bare /v1/x spelling has no
// {name}, which is the default graph), acquire its registry entry —
// hydrating it from the snapshot directory on a cold hit — run fn against
// the entry, and release. The reference held across fn is what makes
// eviction safe: a graph evicted mid-request keeps serving this request
// and tears down afterwards.
func (s *server) withGraph(fn func(*registry.Entry, *http.Request) (interface{}, error)) func(*http.Request) (interface{}, error) {
	return func(r *http.Request) (interface{}, error) {
		name := r.PathValue("name")
		if name == "" {
			name = registry.DefaultGraph
		}
		e, err := s.registry.Acquire(r.Context(), name)
		if err != nil {
			return nil, graphError(err)
		}
		defer e.Release()
		return fn(e, r)
	}
}

// graphError maps the registry's typed failures onto HTTP statuses:
// unknown graph 404, illegal name 400, admin on a static-only registry
// 403, registry shut down 503. Context errors pass through untouched so
// the shared handler maps deadline expiry to 504, and anything else —
// a snapshot that fails to decode during hydration — is a 500: the
// request was well-formed, the serving side is what broke.
func graphError(err error) error {
	switch {
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return err
	case errors.Is(err, registry.ErrUnknownGraph):
		return &httpError{status: http.StatusNotFound, err: err}
	case errors.Is(err, registry.ErrBadName), errors.Is(err, registry.ErrBadSnapshot):
		return err // 400 bad_request
	case errors.Is(err, registry.ErrReadOnly), errors.Is(err, registry.ErrPinned):
		return &httpError{status: http.StatusForbidden, err: err}
	case errors.Is(err, registry.ErrClosed):
		return &httpError{status: http.StatusServiceUnavailable, err: err}
	}
	return &httpError{status: http.StatusInternalServerError, err: err}
}

// httpError carries a status code through the handler return path. A
// non-empty code pins the envelope's machine-readable code instead of
// deriving it from the status, and jobID its job_id: the job routes
// answer job_not_found / job_cancelled / job_failed with them, which
// clients dispatch on.
type httpError struct {
	status int
	err    error
	code   string
	jobID  string
}

func (e *httpError) Error() string { return e.err.Error() }
func (e *httpError) Unwrap() error { return e.err }

// statusResponse lets a handler in the shared handle() path pick its
// success status — POST /v1/jobs answers 202 Accepted with it.
type statusResponse struct {
	status int
	body   interface{}
}

// bodyPool holds the response buffers writeJSON fills, so that a
// response allocates no buffer at steady state.
var bodyPool = sync.Pool{New: func() interface{} { return new(bytes.Buffer) }}

// bodyMaxRetained caps the buffer size returned to the pool so one huge
// batch response does not pin megabytes for the rest of the process's
// life.
const bodyMaxRetained = 1 << 20

// jsonContentType is the Content-Type of every JSON response, assigned to
// the header map as is so that no response allocates its value slice.
var jsonContentType = []string{"application/json"}

// writeJSON encodes v into a pooled buffer — a pairAnswer by appending,
// anything else through encoding/json — and writes it as the complete
// response with the given status and an exact Content-Length. Encoding
// errors (a handler returned an unencodable value — a programming error)
// degrade to a plain 500.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	b := bodyPool.Get().(*bytes.Buffer)
	b.Reset()
	if a, ok := v.(pairAnswer); ok {
		b.Write(a.appendJSON(b.AvailableBuffer()))
	} else if err := json.NewEncoder(b).Encode(v); err != nil {
		bodyPool.Put(b)
		http.Error(w, `{"error":"response encoding failed","code":"internal"}`, http.StatusInternalServerError)
		return
	}
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h["Content-Length"] = []string{strconv.Itoa(b.Len())}
	w.WriteHeader(status)
	w.Write(b.Bytes())
	if b.Cap() <= bodyMaxRetained {
		bodyPool.Put(b)
	}
}

// errorCodes maps every status writeError answers with to the envelope's
// machine-readable code, for errors that do not pin their own.
var errorCodes = map[int]string{
	http.StatusBadRequest:          "bad_request",
	http.StatusForbidden:           "forbidden",
	http.StatusNotFound:            "not_found",
	http.StatusMethodNotAllowed:    "method_not_allowed",
	http.StatusServiceUnavailable:  "unavailable",
	http.StatusGatewayTimeout:      "deadline_exceeded",
	http.StatusInternalServerError: "internal",
}

// writeError renders err as the one api.ErrorEnvelope shape every endpoint
// answers errors with, under the status its type maps to (400 when
// nothing more specific matches).
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	env := api.ErrorEnvelope{Error: err.Error()}
	var he *httpError
	var se *shard.Error
	switch {
	case errors.As(err, &he):
		status = he.status
		env.Code = he.code
		env.JobID = he.jobID
	case errors.As(err, &se):
		// A shard fan-out failed: the answer is unavailable, not wrong.
		// 503 + Retry-After like load shedding, with the failing shard
		// pinned in the envelope so operators can find it without
		// grepping logs. Epoch skew keeps its own code — retrying helps
		// only after a plan rollout settles.
		sid := se.Shard
		env.ShardID = &sid
		if errors.Is(err, shard.ErrEpochMismatch) {
			env.Code = "plan_epoch_mismatch"
		} else {
			env.Code = "shard_unavailable"
		}
		w.Header().Set("Retry-After", "1")
		env.RetryAfterMS = 1000
		status = http.StatusServiceUnavailable
	case errors.Is(err, qe.ErrOverloaded):
		// Load shedding is explicit back-pressure, not a server fault:
		// tell well-behaved clients when to come back.
		w.Header().Set("Retry-After", "1")
		env.RetryAfterMS = 1000
		env.Code = "overloaded"
		status = http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	}
	if env.Code == "" {
		env.Code = errorCodes[status]
	}
	writeJSON(w, status, env)
}

// handle wraps an endpoint with the standard metrics — request and error
// counters plus a latency histogram, named oracled.<endpoint>.{requests,
// errors, latency} — and JSON encoding of both results and errors
// (writeError).
func (s *server) handle(name string, fn func(r *http.Request) (interface{}, error)) http.HandlerFunc {
	reqs := s.reg.Counter("oracled." + name + ".requests")
	errs := s.reg.Counter("oracled." + name + ".errors")
	lat := s.reg.Histogram("oracled." + name + ".latency")
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		reqs.Inc()
		defer func() { lat.Observe(time.Since(t0)) }()
		out, err := fn(r)
		if err != nil {
			errs.Inc()
			writeError(w, err)
			return
		}
		if sr, ok := out.(statusResponse); ok {
			writeJSON(w, sr.status, sr.body)
			return
		}
		writeJSON(w, http.StatusOK, out)
	}
}

// pairAnswer is /v1/distance's answer, which writeJSON appends as the
// bytes encoding/json writes for the same api.PairResponse.
type pairAnswer struct {
	u, v int32
	d    graph.Weight
}

func (a pairAnswer) appendJSON(b []byte) []byte {
	b = append(b, `{"u":`...)
	b = strconv.AppendInt(b, int64(a.u), 10)
	b = append(b, `,"v":`...)
	b = strconv.AppendInt(b, int64(a.v), 10)
	b = append(b, `,"reachable":`...)
	reachable := a.d < apsp.Inf
	b = strconv.AppendBool(b, reachable)
	if reachable {
		// encoding/json's float64 rule: the shortest 'f' form, 'e' below
		// 1e-6 and from 1e21 on, with the exponent's leading zero trimmed.
		format := byte('f')
		if abs := math.Abs(a.d); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
			format = 'e'
		}
		b = strconv.AppendFloat(append(b, `,"distance":`...), a.d, format, -1, 64)
		if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return append(b, "}\n"...)
}

// currentBasis snapshots the default graph's cycle basis pointer.
func (s *server) currentBasis() *mcb.Result {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.basis
}

// healthz keeps its single-graph shape — vertices/edges describe the
// default graph when one is pinned — and adds the registry's known-graph
// count, so multi-tenant daemons (no default graph, vertices 0) still
// report something meaningful.
func (s *server) healthz(*http.Request) (interface{}, error) {
	resp := api.HealthResponse{Status: "ok", MCB: s.currentBasis() != nil}
	list := s.registry.List()
	resp.Graphs = len(list)
	if info, ok := s.registry.Info(registry.DefaultGraph); ok {
		resp.Vertices = info.Vertices
		resp.Edges = info.Edges
	}
	return resp, nil
}

// pairParam parses the u and v parameters of a raw query string as
// url.ParseQuery, Get and a 32-bit ParseInt would, first value winning. A
// query with no '%', '+' or ';' unescapes to itself, so it is scanned in
// place, with no url.Values map. Malformed values are 400; out-of-range
// values flow to the oracle's checked API, whose ErrVertexRange also maps
// to 400 — the daemon never sees a panic either way.
func pairParam(query string) (int32, int32, error) {
	var us, vs string
	if strings.ContainsAny(query, "%+;") {
		q, _ := url.ParseQuery(query)
		us, vs = q.Get("u"), q.Get("v")
	} else {
		var seenU, seenV bool
		for query != "" {
			var kv string
			kv, query, _ = strings.Cut(query, "&")
			switch k, val, _ := strings.Cut(kv, "="); {
			case k == "u" && !seenU:
				us, seenU = val, true
			case k == "v" && !seenV:
				vs, seenV = val, true
			}
		}
	}
	u, err1 := strconv.ParseInt(us, 10, 32)
	v, err2 := strconv.ParseInt(vs, 10, 32)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("need integer query parameters u and v")
	}
	return int32(u), int32(v), nil
}

// distance answers one pair through the engine's pair path: admission,
// then O(1) table reads on a local oracle, or at most two block-row
// fetches on a cluster frontend (whose shard failures surface here as
// typed 503 envelopes, never as "unreachable").
func (s *server) distance(e *registry.Entry, r *http.Request) (interface{}, error) {
	u, v, err := pairParam(r.URL.RawQuery)
	if err != nil {
		return nil, err
	}
	d, err := e.Engine().Query(r.Context(), u, v)
	if err != nil {
		return nil, err
	}
	return pairAnswer{u, v, d}, nil
}

func (s *server) path(e *registry.Entry, r *http.Request) (interface{}, error) {
	u, v, err := pairParam(r.URL.RawQuery)
	if err != nil {
		return nil, err
	}
	// The engine is the admission and validation gate; the distance and
	// the walk then both come from one oracle read, so a delta swapping
	// the engine's source and the entry's oracle one after the other
	// cannot pair one oracle's distance with the other's walk.
	if _, err := e.Engine().Query(r.Context(), u, v); err != nil {
		return nil, err
	}
	o := e.Oracle()
	if o == nil {
		// A cluster frontend has distances but no local ear reductions to
		// walk; path reconstruction needs a shard-side witness protocol
		// that does not exist yet.
		return nil, &httpError{status: http.StatusServiceUnavailable,
			err: fmt.Errorf("path reconstruction is not available on a cluster frontend; query a shard-backed monolith")}
	}
	d, err := o.QueryChecked(u, v)
	var walk []int32
	if err == nil {
		walk, err = o.PathChecked(u, v)
	}
	switch {
	case errors.Is(err, apsp.ErrVertexRange):
		return nil, err // 400 bad_request
	case err != nil:
		return nil, &httpError{status: http.StatusInternalServerError, err: err}
	}
	resp := api.PathResponse{PairResponse: api.PairResponse{U: u, V: v, Reachable: d < apsp.Inf}}
	if resp.Reachable {
		resp.Distance = &d
		resp.Path = walk
	}
	return resp, nil
}

// batch answers a many-to-many distance matrix in one request:
//
//	POST /v1/batch  {"sources":[0,3],"targets":[1,2,5]}
//	→ {"sources":2,"targets":3,"distances":[[...],[...]]}
//
// Unreachable pairs come back as -1 (JSON has no Inf). Rows are built
// once per distinct source, spread over the engine's workers.
func (s *server) batch(e *registry.Entry, r *http.Request) (interface{}, error) {
	var req api.BatchRequest
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxBatchBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("batch body: %w", err)
	}
	// Oversized matrices are rejected by the engine's pair cap (typed
	// qe.ErrBatchTooLarge → 400) before anything is allocated.
	rows, err := e.Engine().Batch(r.Context(), req.Sources, req.Targets)
	if err != nil {
		return nil, err
	}
	dist := make([][]float64, len(rows))
	for i, row := range rows {
		dist[i] = make([]float64, len(row))
		for j, d := range row {
			if qe.Unreachable(d) {
				dist[i][j] = -1
			} else {
				dist[i][j] = float64(d)
			}
		}
	}
	return api.BatchResponse{
		Sources:   len(req.Sources),
		Targets:   len(req.Targets),
		Distances: dist,
	}, nil
}

// mcbCycle serves the cycle basis, which exists only for the default
// graph (built at boot with -mcb); named graphs answer 503 like a daemon
// started without -mcb.
func (s *server) mcbCycle(e *registry.Entry, r *http.Request) (interface{}, error) {
	// The graph is read before the basis: a delta clears the basis before
	// it swaps the graph, so a basis still present here was read with the
	// graph it describes.
	g := e.Graph()
	var basis *mcb.Result
	if e.Name() == registry.DefaultGraph {
		basis = s.currentBasis()
	}
	if basis == nil {
		return nil, &httpError{status: http.StatusServiceUnavailable,
			err: fmt.Errorf("no cycle basis loaded (start with -mcb, invalidated by deltas)")}
	}
	// ParseInt with a 32-bit size, like every other vertex/index parameter:
	// Atoi on a 64-bit platform accepted values beyond int32 and let them
	// reach the basis API as silently different numbers on 32-bit builds.
	i64, err := strconv.ParseInt(r.URL.Query().Get("i"), 10, 32)
	if err != nil {
		return nil, fmt.Errorf("need 32-bit integer query parameter i")
	}
	i := int(i64)
	c, err := basis.CycleChecked(g, i)
	if err != nil {
		if errors.Is(err, mcb.ErrCycleIndex) {
			return nil, &httpError{status: http.StatusNotFound, err: err}
		}
		return nil, &httpError{status: http.StatusInternalServerError, err: err}
	}
	seq, err := mcb.VertexSequenceChecked(g, c)
	if err != nil {
		return nil, &httpError{status: http.StatusInternalServerError, err: err}
	}
	edges := make([][2]int32, len(c.Edges))
	for j, eid := range c.Edges {
		e := g.Edge(eid)
		edges[j] = [2]int32{e.U, e.V}
	}
	return api.CycleResponse{
		Index:    i,
		Dim:      basis.Dim,
		Weight:   c.Weight,
		Edges:    edges,
		Vertices: seq,
	}, nil
}

func (s *server) stats(*http.Request) (interface{}, error) {
	return json.RawMessage(s.reg.String()), nil
}
