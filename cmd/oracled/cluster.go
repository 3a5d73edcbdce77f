package main

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"

	"repro/internal/shard"
)

// enableCluster attaches the frontend's fan-out source to the server so
// the /v1/cluster surface can report plan identity and shard health.
// Called once, before serving starts; the field is read-only afterwards.
func (s *server) enableCluster(src *shard.RemoteSource) { s.cluster = src }

// clusterResponse is GET /v1/cluster: the plan's identity plus one
// cursor page of shard statuses, in the uniform items/next_cursor
// collection shape shared with /v1/graphs and /v1/jobs.
type clusterResponse struct {
	Epoch      uint64              `json:"epoch"`
	NumShards  int32               `json:"num_shards"`
	Blocks     int                 `json:"blocks"`
	Vertices   int                 `json:"vertices"`
	Items      []shard.ShardStatus `json:"items"`
	NextCursor string              `json:"next_cursor,omitempty"`
	Total      int                 `json:"total"`
}

// shardDetailResponse is GET /v1/cluster/shards/{id}: one shard's status
// plus the plan epoch the frontend routes by.
type shardDetailResponse struct {
	shard.ShardStatus
	Epoch uint64 `json:"epoch"`
}

// errNotFrontend is the 503 every cluster route answers on daemons that
// are not cluster frontends — same idiom as the jobs routes without
// -jobs-dir.
func errNotFrontend() error {
	return &httpError{status: http.StatusServiceUnavailable,
		err: fmt.Errorf("not a cluster frontend (start with -cluster-plan and -cluster-shards)")}
}

// clusterList serves GET /v1/cluster. The cursor is the last page's
// highest shard id, keyset-style like the other collections; shard ids
// are dense and stable for a plan's lifetime, so a page is never skewed
// by concurrent changes.
func (s *server) clusterList(r *http.Request) (interface{}, error) {
	if s.cluster == nil {
		return nil, errNotFrontend()
	}
	cursor, limit, err := pageParams(r)
	if err != nil {
		return nil, err
	}
	all := s.cluster.Status()
	total := len(all)
	if cursor != "" {
		after, err := strconv.Atoi(cursor)
		if err != nil {
			return nil, fmt.Errorf("malformed cursor %q", cursor)
		}
		i := sort.Search(len(all), func(k int) bool { return int(all[k].ID) > after })
		all = all[i:]
	}
	next := ""
	if len(all) > limit {
		all = all[:limit]
		next = strconv.Itoa(int(all[len(all)-1].ID))
	}
	p := s.cluster.Plan()
	return clusterResponse{
		Epoch:      p.Epoch,
		NumShards:  p.NumShards,
		Blocks:     p.NumBlocks(),
		Vertices:   p.NumVertices,
		Items:      all,
		NextCursor: next,
		Total:      total,
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
	return shardDetailResponse{ShardStatus: all[id64], Epoch: s.cluster.Epoch()}, nil
}
