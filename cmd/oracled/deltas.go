package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/apsp"
	"repro/internal/registry"
)

// maxDeltasBody and maxDeltasPerRequest bound one /v1/deltas request.
const (
	maxDeltasBody       = 1 << 20
	maxDeltasPerRequest = 4096
)

// deltaRecord is the wire form of one delta. Fields are pointers so a
// missing field is distinguishable from a legal zero (edge 0, weight 0).
type deltaRecord struct {
	Op     string   `json:"op"` // "weight" | "insert" | "delete"
	Edge   *int32   `json:"edge,omitempty"`
	U      *int32   `json:"u,omitempty"`
	V      *int32   `json:"v,omitempty"`
	Weight *float64 `json:"weight,omitempty"`
}

// deltasRequest is the POST /v1/deltas JSON body.
type deltasRequest struct {
	Deltas []deltaRecord `json:"deltas"`
}

// deltasResponse is the POST /v1/deltas result body. MCBInvalidated
// omits itself unless a basis was actually dropped.
type deltasResponse struct {
	Applied         int  `json:"applied"`
	TouchedBlocks   int  `json:"touched_blocks"`
	ReusedBlocks    int  `json:"reused_blocks"`
	RebuildFallback bool `json:"rebuild_fallback"`
	Vertices        int  `json:"vertices"`
	Edges           int  `json:"edges"`
	MCBInvalidated  bool `json:"mcb_invalidated,omitempty"`
}

func (rec *deltaRecord) decode(i int) (apsp.Delta, error) {
	switch rec.Op {
	case "weight":
		if rec.Edge == nil || rec.Weight == nil {
			return apsp.Delta{}, fmt.Errorf("delta %d: op weight needs edge and weight", i)
		}
		return apsp.Delta{Kind: apsp.DeltaWeight, Edge: *rec.Edge, W: *rec.Weight}, nil
	case "insert":
		if rec.U == nil || rec.V == nil || rec.Weight == nil {
			return apsp.Delta{}, fmt.Errorf("delta %d: op insert needs u, v, and weight", i)
		}
		return apsp.Delta{Kind: apsp.DeltaInsert, U: *rec.U, V: *rec.V, W: *rec.Weight}, nil
	case "delete":
		if rec.Edge == nil {
			return apsp.Delta{}, fmt.Errorf("delta %d: op delete needs edge", i)
		}
		return apsp.Delta{Kind: apsp.DeltaDelete, Edge: *rec.Edge}, nil
	}
	return apsp.Delta{}, fmt.Errorf("delta %d: unknown op %q (want weight, insert, or delete)", i, rec.Op)
}

// deltas is POST /v1/deltas (or /v1/graphs/{name}/deltas): apply an
// ordered edge/weight delta script to one live graph and swap the result
// in without dropping a request.
//
//	POST /v1/deltas  {"deltas":[{"op":"weight","edge":0,"weight":5},
//	                            {"op":"insert","u":0,"v":9,"weight":1},
//	                            {"op":"delete","edge":2}]}
//
// Edge IDs are positional at application time, exactly as in the apsp
// package: a delete shifts later IDs down, an insert appends. The whole
// script validates before anything is built — a 400 (code "bad_request")
// means no change was applied. Concurrent /v1/distance (or /v1/path,
// /v1/batch) requests keep answering throughout: each sees either the
// pre-delta or the post-delta oracle, never a mix. Scripts against one
// graph apply in arrival order; scripts against different graphs do not
// wait for each other. A loaded cycle basis describes the pre-delta
// default graph, so a successful apply against the default graph
// invalidates it ("mcb" flips to false in /v1/healthz and /v1/mcb/cycle
// answers 503). With -save-snapshot, a default-graph apply rewrites the
// file with the post-delta oracle before the swap: a 500 then means
// nothing changed, in memory or on disk. Named graphs mutate in memory
// only — the snapshot file keeps the base state, so an evict/rehydrate
// cycle resets them to it.
func (s *server) deltas(e *registry.Entry, r *http.Request) (interface{}, error) {
	var req deltasRequest
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxDeltasBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("deltas body: %w", err)
	}
	if len(req.Deltas) == 0 {
		return nil, fmt.Errorf("deltas body: empty script")
	}
	if len(req.Deltas) > maxDeltasPerRequest {
		return nil, fmt.Errorf("script of %d deltas exceeds the %d limit", len(req.Deltas), maxDeltasPerRequest)
	}
	ds := make([]apsp.Delta, len(req.Deltas))
	for i := range req.Deltas {
		var err error
		if ds[i], err = req.Deltas[i].decode(i); err != nil {
			return nil, err
		}
	}

	if e.Oracle() == nil {
		// A cluster frontend's entry exposes no oracle to mutate (its plan
		// holds no block tables); deltas in a sharded deployment mean
		// re-planning and restarting the shards.
		return nil, &httpError{status: http.StatusServiceUnavailable,
			err: fmt.Errorf("deltas are not available on a cluster frontend: re-plan with cmd/shardplan and roll the shards")}
	}
	// The default graph's save hook runs after a successful apply and
	// before the swap: it rewrites -save-snapshot's file, then drops the
	// basis, so no request can pair the old basis with the new graph.
	var save func(*apsp.Oracle) error
	var mcbInvalidated bool
	if e.Name() == registry.DefaultGraph {
		save = func(next *apsp.Oracle) error {
			if s.savePath != "" {
				if err := saveOracleSnapshot(s.reg, s.savePath, next); err != nil {
					return fmt.Errorf("save snapshot %s, nothing applied: %w", s.savePath, err)
				}
			}
			s.mu.Lock()
			mcbInvalidated = s.basis != nil
			s.basis = nil
			s.mu.Unlock()
			return nil
		}
	}
	next, res, err := e.Apply(r.Context(), ds, save)
	if err != nil {
		if errors.Is(err, apsp.ErrBadDelta) {
			return nil, err // 400 bad_request, nothing applied
		}
		return nil, &httpError{status: http.StatusInternalServerError, err: err}
	}
	return deltasResponse{
		Applied:         len(ds),
		TouchedBlocks:   res.TouchedBlocks,
		ReusedBlocks:    res.ReusedBlocks,
		RebuildFallback: res.RebuildFallback,
		Vertices:        next.G.NumVertices(),
		Edges:           next.G.NumEdges(),
		MCBInvalidated:  mcbInvalidated,
	}, nil
}
