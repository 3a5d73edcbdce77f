package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"

	"repro/internal/api"
	"repro/internal/jobs"
	"repro/internal/registry"
)

// maxJobBody bounds one POST /v1/jobs JSON body. Specs are small — two
// vertex lists at most — so a tight cap keeps a hostile submit cheap.
const maxJobBody = 8 << 20

// Pagination defaults shared by the /v1/graphs and /v1/jobs collection
// listings: limit clamps to [1, maxPageLimit], absent/zero means
// defaultPageLimit. Documented in the OpenAPI spec's cursor/limit params.
const (
	defaultPageLimit = 100
	maxPageLimit     = 1000
)

// pageParams parses the uniform cursor/limit query parameters.
func pageParams(r *http.Request) (cursor string, limit int, err error) {
	q := r.URL.Query()
	cursor = q.Get("cursor")
	limit = defaultPageLimit
	if raw := q.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 {
			return "", 0, fmt.Errorf("limit must be a positive integer")
		}
		if n > maxPageLimit {
			n = maxPageLimit
		}
		limit = n
	}
	return cursor, limit, nil
}

// keysetPage is the one paginator of the collection listings. all is
// sorted by key, and past reports whether an item's key sorts strictly
// after the cursor (every item is past the first page's "" cursor). The
// page is the items past the cursor, at most limit of them (limit ≤ 0
// means all); next is the page's last key when items were cut off, ""
// on the last page. Keys are graph names, job IDs or decimal shard IDs.
// A cursor is a key, not a position, so a page is never skewed by items
// added or removed since the previous one.
func keysetPage[T any](all []T, past func(T) bool, key func(T) string, limit int) (page []T, next string) {
	page = all[sort.Search(len(all), func(k int) bool { return past(all[k]) }):]
	if limit > 0 && len(page) > limit {
		page = page[:limit]
		next = key(page[len(page)-1])
	}
	return page, next
}

// manager guards the async tier's presence: daemons started without
// -jobs-dir have no manager and every /v1/jobs route answers 503.
func (s *server) manager() (*jobs.Manager, error) {
	if s.jobs == nil {
		return nil, &httpError{status: http.StatusServiceUnavailable,
			err: fmt.Errorf("async jobs disabled (start with -jobs-dir)")}
	}
	return s.jobs, nil
}

// jobError maps the jobs package's typed failures onto statuses and the
// job-aware envelope codes. Terminal-state refusals (job_cancelled,
// job_failed) are produced at the results route, not here — status reads
// on terminal jobs are fine.
func jobError(id string, err error) error {
	switch {
	case errors.Is(err, jobs.ErrUnknownJob):
		return &httpError{status: http.StatusNotFound, err: err, code: "job_not_found", jobID: id}
	case errors.Is(err, jobs.ErrBadSpec), errors.Is(err, jobs.ErrBadOffset):
		return err // 400 bad_request
	case errors.Is(err, jobs.ErrClosed):
		return &httpError{status: http.StatusServiceUnavailable, err: err}
	}
	return &httpError{status: http.StatusInternalServerError, err: err}
}

// jobsList is GET /v1/jobs: one cursor page of jobs.
func (s *server) jobsList(r *http.Request) (interface{}, error) {
	m, err := s.manager()
	if err != nil {
		return nil, err
	}
	cursor, limit, err := pageParams(r)
	if err != nil {
		return nil, err
	}
	all := m.List()
	items, next := keysetPage(all, func(j jobs.Status) bool { return j.ID > cursor },
		func(j jobs.Status) string { return j.ID }, limit)
	return api.JobListResponse{Items: items, NextCursor: next, Total: len(all)}, nil
}

// jobSubmit is POST /v1/jobs: submit and answer 202 Accepted with the
// pending status (its id is the handle everything else uses).
func (s *server) jobSubmit(r *http.Request) (interface{}, error) {
	m, err := s.manager()
	if err != nil {
		return nil, err
	}
	var spec jobs.Spec
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxJobBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("job spec: %w", err)
	}
	if spec.Graph == "" {
		spec.Graph = registry.DefaultGraph
	}
	st, err := m.Submit(spec)
	if err != nil {
		return nil, jobError("", err)
	}
	return statusResponse{http.StatusAccepted, st}, nil
}

// jobStatus is GET /v1/jobs/{id}: the status poll (state, progress
// fraction, row counters).
func (s *server) jobStatus(r *http.Request) (interface{}, error) {
	return s.jobOp(r, (*jobs.Manager).Get)
}

// jobCancel is DELETE /v1/jobs/{id}: context-first, so a running job
// observes it at the next chunk boundary; cancelling a terminal job is an
// idempotent no-op returning the terminal status.
func (s *server) jobCancel(r *http.Request) (interface{}, error) {
	return s.jobOp(r, (*jobs.Manager).Cancel)
}

// jobOp runs one by-id manager call and maps its typed failures.
func (s *server) jobOp(r *http.Request, op func(*jobs.Manager, string) (jobs.Status, error)) (interface{}, error) {
	m, err := s.manager()
	if err != nil {
		return nil, err
	}
	id := r.PathValue("id")
	st, err := op(m, id)
	if err != nil {
		return nil, jobError(id, err)
	}
	return st, nil
}

// flushWriter forwards NDJSON chunks to the client as they become
// durable; without the per-write flush a follower would see nothing
// until the ResponseWriter's buffer filled.
type flushWriter struct {
	w     http.ResponseWriter
	f     http.Flusher
	wrote bool
}

func (fw *flushWriter) Write(p []byte) (int, error) {
	fw.wrote = true
	n, err := fw.w.Write(p)
	if fw.f != nil {
		fw.f.Flush()
	}
	return n, err
}

// jobResults streams GET /v1/jobs/{id}/results as application/x-ndjson.
// It bypasses the buffered handle() path: rows are written through as
// they become durable, the response stays open while the job runs, and
// it ends when the job completes. Reconnection is Last-Event-ID style —
// a client that has received N bytes resumes with ?offset=N (or the
// Last-Event-ID header) and the stream continues on the exact line
// boundary; the manager rejects mid-line offsets as 400.
//
// A cancelled or failed job answers 410 Gone with the job-aware envelope
// code (job_cancelled / job_failed, the latter carrying the terminal
// error string) — the stream is permanently incomplete, which a
// status-code-only client must be able to distinguish from "done".
func (s *server) jobResults(w http.ResponseWriter, r *http.Request) {
	reqs := s.reg.Counter("oracled.jobs.results.requests")
	errs := s.reg.Counter("oracled.jobs.results.errors")
	reqs.Inc()
	fail := func(err error) {
		errs.Inc()
		writeError(w, err)
	}

	m, err := s.manager()
	if err != nil {
		fail(err)
		return
	}
	id := r.PathValue("id")
	st, err := m.Get(id)
	if err != nil {
		fail(jobError(id, err))
		return
	}
	switch st.State {
	case jobs.StateCancelled:
		fail(&httpError{status: http.StatusGone, code: "job_cancelled", jobID: id,
			err: fmt.Errorf("job %s was cancelled", id)})
		return
	case jobs.StateFailed:
		fail(&httpError{status: http.StatusGone, code: "job_failed", jobID: id,
			err: fmt.Errorf("job %s failed: %s", id, st.Error)})
		return
	}

	offset := int64(0)
	raw := r.URL.Query().Get("offset")
	if raw == "" {
		raw = r.Header.Get("Last-Event-ID")
	}
	if raw != "" {
		offset, err = strconv.ParseInt(raw, 10, 64)
		if err != nil || offset < 0 {
			fail(fmt.Errorf("offset must be a non-negative integer byte offset"))
			return
		}
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	// The 200 header is deferred to the first durable byte: if Stream
	// rejects the offset before writing anything, the error envelope can
	// still go out with its proper status.
	fw := &flushWriter{w: w}
	fw.f, _ = w.(http.Flusher)
	if _, err := m.Stream(r.Context(), id, offset, fw); err != nil && !fw.wrote {
		w.Header().Del("Content-Type")
		w.Header().Del("Cache-Control")
		fail(jobError(id, err))
	}
	// Mid-stream errors (client went away, ctx cancelled) have already
	// committed the 200; nothing useful can be appended — the client's
	// byte count is its resume cursor.
}
