package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/apsp"
	"repro/internal/graph"
	"repro/internal/snapshot"
)

// The internal row RPC. The request is small and diagnostic-friendly, so
// it is JSON; the response carries float rows whose bytes must survive
// the wire exactly (Inf included), so it is a checksummed EARSNAPS
// container, not JSON (which cannot represent Inf and rounds floats
// through decimal).
//
//	POST /internal/rows
//	  {"epoch": 7, "rows": [[block, src], ...]}
//	→ 200 application/octet-stream: snapshot container
//	    rmeta  format version, plan epoch, row count
//	    rows   per row: block, src, in-block distance values
//	→ 409 {"error": ..., "code": "plan_epoch_mismatch"} on epoch skew
//	→ 400 {"error": ..., "code": "shard_misroute"} for unowned blocks
//	→ 400 {"error": ..., "code": "bad_request"} for more rows than owned blocks
//
//	GET /internal/health
//	→ 200 {"status": "ok", "epoch": ..., "shard": ..., ...}

// rowsFormatVersion is the version of the row RPC response payload.
const rowsFormatVersion = 1

// maxRowsBody bounds the row request body; a frontend's fan-out for one
// row never comes close (a few bytes per needed block).
const maxRowsBody = 1 << 22

// rowsRequest is the JSON body of POST /internal/rows. Rows are
// [block, src] pairs; src is a parent-graph vertex ID.
type rowsRequest struct {
	Epoch uint64     `json:"epoch"`
	Rows  [][2]int32 `json:"rows"`
}

// Handler serves a shard daemon's internal surface over one decoded
// shard snapshot.
type Handler struct {
	sb *apsp.ShardBlocks
}

// NewHandler wraps a decoded shard snapshot for serving.
func NewHandler(sb *apsp.ShardBlocks) *Handler { return &Handler{sb: sb} }

// Register mounts the internal routes on mux.
func (h *Handler) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /internal/rows", h.Rows)
	mux.HandleFunc("GET /internal/health", h.Health)
}

// writeShardErr emits the same error envelope shape as the public API
// (error + code), so misroutes and epoch skew are machine-readable.
func writeShardErr(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg, "code": code})
}

// Rows answers POST /internal/rows: a batch of in-block distance rows,
// each the exact bytes the monolith oracle's QueryParent would produce.
func (h *Handler) Rows(w http.ResponseWriter, r *http.Request) {
	var req rowsRequest
	body := http.MaxBytesReader(w, r.Body, maxRowsBody)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeShardErr(w, http.StatusBadRequest, "bad_request", "malformed rows request: "+err.Error())
		return
	}
	meta := h.sb.Meta()
	if req.Epoch != meta.Epoch {
		writeShardErr(w, http.StatusConflict, "plan_epoch_mismatch",
			fmt.Sprintf("shard serves plan epoch %d, request carries %d", meta.Epoch, req.Epoch))
		return
	}
	// A frontend asks one shard for at most one row per block (a stitched
	// row wants each reached block once, a pair at most two blocks), so a
	// longer batch is refused before any row is allocated.
	if len(req.Rows) > h.sb.OwnedBlocks() {
		writeShardErr(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("%d rows requested from a shard owning %d blocks", len(req.Rows), h.sb.OwnedBlocks()))
		return
	}

	sw := snapshot.NewWriter()
	md := sw.Section("rmeta")
	md.U32(rowsFormatVersion)
	md.U64(meta.Epoch)
	md.U64(uint64(len(req.Rows)))
	re := sw.Section("rows")
	for _, pair := range req.Rows {
		b, src := pair[0], pair[1]
		out := make([]graph.Weight, h.sb.BlockLen(b))
		if err := h.sb.BlockRow(b, src, out); err != nil {
			// Unowned or out-of-range block: the caller's shard map is
			// stale or wrong — a routing error, not a server fault.
			writeShardErr(w, http.StatusBadRequest, "shard_misroute",
				fmt.Sprintf("row (block %d, src %d): %v", b, src, err))
			return
		}
		re.I32(b)
		re.I32(src)
		re.F64s(out)
	}

	var buf bytes.Buffer
	if _, err := sw.WriteTo(&buf); err != nil {
		writeShardErr(w, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", fmt.Sprint(buf.Len()))
	_, _ = w.Write(buf.Bytes())
}

// healthBody is the JSON body of GET /internal/health.
type healthBody struct {
	Status      string `json:"status"`
	Epoch       uint64 `json:"epoch"`
	Shard       int32  `json:"shard"`
	NumShards   int32  `json:"num_shards"`
	OwnedBlocks int    `json:"owned_blocks"`
}

// Health answers GET /internal/health with the shard's identity; the
// frontend's prober checks the epoch against its manifest.
func (h *Handler) Health(w http.ResponseWriter, r *http.Request) {
	meta := h.sb.Meta()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(healthBody{
		Status: "ok", Epoch: meta.Epoch, Shard: meta.Shard,
		NumShards: meta.NumShards, OwnedBlocks: h.sb.OwnedBlocks(),
	})
}

// rowsResponseLen is the exact size of a well-formed response carrying
// rows of the given lengths: the container around rmeta (version, epoch,
// count) and, per row, block, src, a length prefix and the values.
func rowsResponseLen(lens []int) int64 {
	n := int64(snapshot.Overhead(2)) + 4 + 8 + 8
	for _, l := range lens {
		n += 4 + 4 + 8 + 8*int64(l)
	}
	return n
}

// decodeRowsResponse parses and validates a row RPC response against the
// request that produced it: the epoch, the row count, each row's
// (block, src) echo, and each row's length (from lens) must all match.
// It reads at most one byte past the size the request implies; a longer
// body is a corrupt response no retry can fix, whatever else is wrong
// with it.
func decodeRowsResponse(r io.Reader, wantEpoch uint64, reqs [][2]int32, lens []int) (rows [][]graph.Weight, err error) {
	limit := rowsResponseLen(lens)
	body := &io.LimitedReader{R: r, N: limit + 1}
	defer func() {
		if io.Copy(io.Discard, body); body.N == 0 {
			rows, err = nil, &noRetryError{snapshot.Corruptf("shard: rows response exceeds the %d bytes its request allows", limit)}
		}
	}()
	sr, err := snapshot.NewReader(body)
	if err != nil {
		return nil, err
	}
	md := sr.Section("rmeta")
	md.Version("shard: rows response", rowsFormatVersion)
	epoch := md.U64()
	count := md.U64()
	if err := md.Finish(); err != nil {
		return nil, err
	}
	if epoch != wantEpoch {
		return nil, fmt.Errorf("shard: rows response carries epoch %d, want %d: %w",
			epoch, wantEpoch, ErrEpochMismatch)
	}
	if count != uint64(len(reqs)) {
		return nil, snapshot.Corruptf("shard: rows response holds %d rows, request asked %d", count, len(reqs))
	}
	rd := sr.Section("rows")
	rows = make([][]graph.Weight, len(reqs))
	for i, pair := range reqs {
		b, src := rd.I32(), rd.I32()
		vals := rd.F64s()
		if err := rd.Err(); err != nil {
			return nil, err
		}
		if b != pair[0] || src != pair[1] {
			return nil, snapshot.Corruptf("shard: row %d answers (block %d, src %d), request asked (block %d, src %d)",
				i, b, src, pair[0], pair[1])
		}
		if len(vals) != lens[i] {
			return nil, snapshot.Corruptf("shard: row %d holds %d values, block %d has %d vertices",
				i, len(vals), b, lens[i])
		}
		rows[i] = vals
	}
	if err := rd.Finish(); err != nil {
		return nil, err
	}
	return rows, nil
}
