package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"

	"repro/internal/apsp"
	"repro/internal/registry"
	"repro/internal/snapshot"
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

// deltasResponse is the POST /v1/deltas result body. The two optional
// fields omit themselves when irrelevant: MCBInvalidated only appears
// when a basis was actually dropped, ChainDeltas only when chain
// persistence is on (so 0 uses omitempty safely — an enabled, empty chain
// cannot reach here, since an apply always appends at least one delta).
type deltasResponse struct {
	Applied         int  `json:"applied"`
	TouchedBlocks   int  `json:"touched_blocks"`
	ReusedBlocks    int  `json:"reused_blocks"`
	RebuildFallback bool `json:"rebuild_fallback"`
	Vertices        int  `json:"vertices"`
	Edges           int  `json:"edges"`
	MCBInvalidated  bool `json:"mcb_invalidated,omitempty"`
	ChainDeltas     int  `json:"chain_deltas,omitempty"`
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
// pre-delta or the post-delta oracle, never a mix. A loaded cycle basis
// describes the pre-delta default graph, so a successful apply against the
// default graph invalidates it ("mcb" flips to false in /v1/healthz and
// /v1/mcb/cycle answers 503); chain persistence likewise records only
// the default graph's history. Named graphs mutate in memory only — the
// snapshot file keeps the base state, so an evict/rehydrate cycle resets
// them to it.
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

	// One applier at a time, across all graphs: positional edge IDs make
	// the application order part of the script's meaning, and a single
	// total order keeps the chain file's replay semantics trivial.
	s.deltaMu.Lock()
	defer s.deltaMu.Unlock()

	o := e.Oracle()
	if o == nil {
		// A cluster frontend holds no local oracle to mutate; deltas in a
		// sharded deployment mean re-planning and restarting the shards.
		return nil, &httpError{http.StatusServiceUnavailable,
			fmt.Errorf("deltas are not available on a cluster frontend: re-plan with cmd/shardplan and roll the shards")}
	}
	next, res, err := o.ApplyDelta(r.Context(), ds)
	if err != nil {
		if errors.Is(err, apsp.ErrBadDelta) {
			return nil, err // 400 bad_request, nothing applied
		}
		return nil, &httpError{http.StatusInternalServerError, err}
	}

	// Swap order matters (inside Swap): the engine's source first, then
	// the entry's served pointers. A request racing the swap gets a
	// consistent answer from one side or the other.
	e.Swap(next)
	isDefault := e.Name() == registry.DefaultGraph
	var mcbInvalidated bool
	if isDefault {
		s.mu.Lock()
		mcbInvalidated = s.basis != nil
		s.basis = nil
		s.mu.Unlock()
	}

	resp := deltasResponse{
		Applied:         len(ds),
		TouchedBlocks:   res.TouchedBlocks,
		ReusedBlocks:    res.ReusedBlocks,
		RebuildFallback: res.RebuildFallback,
		Vertices:        next.G.NumVertices(),
		Edges:           next.G.NumEdges(),
		MCBInvalidated:  mcbInvalidated,
	}
	if s.chainPath != "" && isDefault {
		s.chainDeltas = append(s.chainDeltas, ds...)
		if err := writeChainSnapshot(s.chainPath, s.chainBase, s.chainDeltas); err != nil {
			// The oracle already swapped — the serve side is consistent —
			// but durability failed; surface that loudly.
			return nil, &httpError{http.StatusInternalServerError,
				fmt.Errorf("deltas applied but chain snapshot failed: %w", err)}
		}
		resp.ChainDeltas = len(s.chainDeltas)
	}
	return resp, nil
}

// enableChain starts delta-chain persistence: path is rewritten after
// every successful /v1/deltas apply as base-oracle + all deltas since, so
// -load-snapshot of that file replays to the daemon's current head. The
// initial write (empty chain) happens here, so the file exists — and boots
// an identical daemon — before the first delta arrives.
func (s *server) enableChain(path string, base *apsp.Oracle) error {
	s.deltaMu.Lock()
	defer s.deltaMu.Unlock()
	s.chainPath, s.chainBase, s.chainDeltas = path, base, nil
	return writeChainSnapshot(path, base, nil)
}

// writeChainSnapshot persists base + deltas through the durable
// publisher: a loader never observes a torn or unsynced chain.
func writeChainSnapshot(path string, base *apsp.Oracle, deltas []apsp.Delta) error {
	return snapshot.WriteFile(path, func(f *os.File) error {
		_, err := base.WriteChainTo(f, deltas)
		return err
	})
}
