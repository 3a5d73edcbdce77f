package main

import (
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/api"
	"repro/internal/registry"
)

// graphsList is GET /v1/graphs.
func (s *server) graphsList(r *http.Request) (interface{}, error) {
	cursor, limit, err := pageParams(r)
	if err != nil {
		return nil, err
	}
	all := s.registry.List()
	items, next := keysetPage(all, func(g registry.GraphInfo) bool { return g.Name > cursor },
		func(g registry.GraphInfo) string { return g.Name }, limit)
	return api.GraphListResponse{Items: items, NextCursor: next, Total: len(all), MaxGraphs: s.registry.MaxGraphs()}, nil
}

// adminName reads and validates the {name} of the per-graph admin
// resource /v1/graphs/{name}.
func adminName(r *http.Request) (string, error) {
	name := r.PathValue("name")
	if !registry.ValidName(name) {
		return "", graphError(fmt.Errorf("%q: %w", name, registry.ErrBadName))
	}
	return name, nil
}

// graphInfo is GET /v1/graphs/{name}: one graph's lifecycle state and
// scoped metrics (the same names single-graph /stats exports, rendered
// from the graph's "g.<name>." namespace).
func (s *server) graphInfo(r *http.Request) (interface{}, error) {
	name, err := adminName(r)
	if err != nil {
		return nil, err
	}
	info, ok := s.registry.Info(name)
	if !ok {
		return nil, graphError(fmt.Errorf("%q: %w", name, registry.ErrUnknownGraph))
	}
	return api.GraphDetailResponse{
		GraphInfo: info,
		Stats:     json.RawMessage(s.registry.StatsView(name).String()),
	}, nil
}

// graphRegister is PUT /v1/graphs/{name}: upload (or atomically replace)
// the graph's snapshot. Uploads stream to a temporary file and are
// decode-validated before the rename, so a half-written or corrupt body
// never becomes servable; replacement drops the resident entry, whose
// in-flight requests finish on the old oracle.
func (s *server) graphRegister(r *http.Request) (interface{}, error) {
	name, err := adminName(r)
	if err != nil {
		return nil, err
	}
	nv, ne, err := s.registry.Register(name, http.MaxBytesReader(nil, r.Body, maxSnapshotBody))
	if err != nil {
		return nil, graphError(err)
	}
	return api.RegisterResponse{Name: name, Vertices: nv, Edges: ne}, nil
}

// graphRemove is DELETE /v1/graphs/{name}: unregister the graph and
// delete its snapshot.
func (s *server) graphRemove(r *http.Request) (interface{}, error) {
	name, err := adminName(r)
	if err != nil {
		return nil, err
	}
	if err := s.registry.Remove(name); err != nil {
		return nil, graphError(err)
	}
	return api.RemoveResponse{Name: name, Removed: true}, nil
}
