package main

import (
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/api"
	"repro/internal/shard"
)

// enableCluster attaches the frontend's fan-out source to the server so
// the /v1/cluster surface can report plan identity and shard health.
// Called once, before serving starts; the field is read-only afterwards.
func (s *server) enableCluster(src *shard.RemoteSource) { s.cluster = src }

// errNotFrontend is the 503 every cluster route answers on daemons that
// are not cluster frontends — same idiom as the jobs routes without
// -jobs-dir.
func errNotFrontend() error {
	return &httpError{status: http.StatusServiceUnavailable,
		err: fmt.Errorf("not a cluster frontend (start with -cluster-plan and -cluster-shards)")}
}

// clusterList serves GET /v1/cluster. The cursor is the last page's
// highest shard id, in decimal; shard ids are dense and stable for a
// plan's lifetime.
func (s *server) clusterList(r *http.Request) (interface{}, error) {
	if s.cluster == nil {
		return nil, errNotFrontend()
	}
	cursor, limit, err := pageParams(r)
	if err != nil {
		return nil, err
	}
	after := -1
	if cursor != "" {
		if after, err = strconv.Atoi(cursor); err != nil {
			return nil, fmt.Errorf("malformed cursor %q", cursor)
		}
	}
	all := s.cluster.Status()
	items, next := keysetPage(all, func(st shard.ShardStatus) bool { return int(st.ID) > after },
		func(st shard.ShardStatus) string { return strconv.Itoa(int(st.ID)) }, limit)
	p := s.cluster.Plan()
	return api.ClusterResponse{
		Epoch:      p.Epoch,
		NumShards:  p.NumShards,
		Blocks:     p.NumBlocks(),
		Vertices:   p.NumVertices,
		Items:      items,
		NextCursor: next,
		Total:      len(all),
	}, nil
}

// clusterShard serves GET /v1/cluster/shards/{id}.
func (s *server) clusterShard(r *http.Request) (interface{}, error) {
	if s.cluster == nil {
		return nil, errNotFrontend()
	}
	id64, err := strconv.ParseInt(r.PathValue("id"), 10, 32)
	if err != nil {
		return nil, fmt.Errorf("shard id must be an integer")
	}
	all := s.cluster.Status()
	if id64 < 0 || int(id64) >= len(all) {
		return nil, &httpError{status: http.StatusNotFound,
			err: fmt.Errorf("no shard %d in a %d-shard plan", id64, len(all))}
	}
	return api.ShardDetailResponse{ShardStatus: all[id64], Epoch: s.cluster.Epoch()}, nil
}
