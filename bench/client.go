package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/apsp"
	"repro/internal/graph"
	"repro/internal/verify"
)

// tenant is one served graph with the in-process reference its answers
// are checked against.
type tenant struct {
	prefix string // "/v1" or "/v1/graphs/<name>"
	g      *graph.Graph
	ref    *apsp.Oracle
	// structural is set while a writer swaps the served oracle under the
	// readers: an answer may come from either side of a swap, so only its
	// shape is checked in-run and exact values after the run.
	structural bool
}

// conn is one keep-alive HTTP/1.1 connection to a daemon. Each client
// goroutine owns one, so a workload never holds more connections than it
// has clients.
type conn struct {
	hc   *http.Client
	base string
	body bytes.Buffer
}

func newConn(base string) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, base: base}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

type pairBody struct {
	U         int32    `json:"u"`
	V         int32    `json:"v"`
	Reachable bool     `json:"reachable"`
	Distance  *float64 `json:"distance"`
	Path      []int32  `json:"path"`
}

type batchBody struct {
	Distances [][]float64 `json:"distances"`
}

// do sends one request and returns the body of a 200 answer, which the
// caller verifies with tenant.check after it has taken the time; any
// other outcome is the reason the request counts as failed. With a tracer
// it records client.request ⊃ client.write, client.wait, client.read.
func (c *conn) do(ctx context.Context, tn *tenant, rq request, tr *tracer, reqID int) ([]byte, error) {
	var hr *http.Request
	var err error
	switch rq.kind {
	case kindBatch:
		c.body.Reset()
		json.NewEncoder(&c.body).Encode(map[string][]int32{"sources": rq.sources, "targets": rq.targets})
		hr, err = http.NewRequestWithContext(ctx, http.MethodPost, c.base+tn.prefix+"/batch", bytes.NewReader(c.body.Bytes()))
	default:
		route := "/distance?u="
		if rq.kind == kindPath {
			route = "/path?u="
		}
		url := c.base + tn.prefix + route + strconv.Itoa(int(rq.u)) + "&v=" + strconv.Itoa(int(rq.v))
		hr, err = http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	}
	if err != nil {
		return nil, err
	}
	// The transport calls the hooks on its own goroutines, so they only
	// store timestamps; the spans are cut from them once the body is read.
	var wrote, firstByte atomic.Int64
	start := time.Now()
	if tr != nil {
		hr = hr.WithContext(httptrace.WithClientTrace(hr.Context(), &httptrace.ClientTrace{
			WroteRequest:         func(httptrace.WroteRequestInfo) { wrote.Store(time.Since(start).Nanoseconds()) },
			GotFirstResponseByte: func() { firstByte.Store(time.Since(start).Nanoseconds()) },
		}))
		defer func() {
			w, f := start.Add(time.Duration(wrote.Load())), start.Add(time.Duration(firstByte.Load()))
			if end := time.Now(); !f.Before(w) {
				root := tr.add("client.request", 0, reqID, start, end)
				tr.add("client.write", root, reqID, start, w)
				tr.add("client.wait", root, reqID, w, f)
				tr.add("client.read", root, reqID, f, end)
			}
		}()
	}
	resp, err := c.hc.Do(hr)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", resp.StatusCode, raw)
	}
	return raw, nil
}

// errWrong marks an answer that arrived but is not the reference's.
type errWrong struct{ msg string }

func (e *errWrong) Error() string { return "wrong answer: " + e.msg }

func wrongf(format string, args ...interface{}) error {
	return &errWrong{fmt.Sprintf(format, args...)}
}

// check compares one 200 body to the reference: distances by
// math.Float64bits, paths by verify.Walk against the reference distance.
func (tn *tenant) check(rq request, raw []byte) error {
	if rq.kind == kindBatch {
		var b batchBody
		if err := json.Unmarshal(raw, &b); err != nil {
			return wrongf("batch body: %v", err)
		}
		if len(b.Distances) != len(rq.sources) {
			return wrongf("batch has %d rows, want %d", len(b.Distances), len(rq.sources))
		}
		for i, row := range b.Distances {
			if len(row) != len(rq.targets) {
				return wrongf("batch row %d has %d entries, want %d", i, len(row), len(rq.targets))
			}
			if tn.structural {
				continue
			}
			for j, got := range row {
				if err := tn.checkDistance(rq.sources[i], rq.targets[j], got >= 0, got); err != nil {
					return err
				}
			}
		}
		return nil
	}
	var p pairBody
	if err := json.Unmarshal(raw, &p); err != nil {
		return wrongf("body: %v", err)
	}
	if p.U != rq.u || p.V != rq.v {
		return wrongf("answer is for (%d,%d), asked (%d,%d)", p.U, p.V, rq.u, rq.v)
	}
	if p.Reachable != (p.Distance != nil) {
		return wrongf("reachable %v with distance present %v", p.Reachable, p.Distance != nil)
	}
	var d float64
	if p.Distance != nil {
		d = *p.Distance
	}
	if !tn.structural {
		if err := tn.checkDistance(rq.u, rq.v, p.Reachable, d); err != nil {
			return err
		}
	}
	if rq.kind == kindPath && p.Reachable {
		if len(p.Path) == 0 || p.Path[0] != rq.u || p.Path[len(p.Path)-1] != rq.v {
			return wrongf("path %v does not run from %d to %d", p.Path, rq.u, rq.v)
		}
		if !tn.structural {
			if err := verify.Walk(tn.g, p.Path, d); err != nil {
				return wrongf("%v", err)
			}
		}
	}
	return nil
}

func (tn *tenant) checkDistance(u, v int32, reachable bool, got float64) error {
	want, err := tn.ref.QueryChecked(u, v)
	if err != nil {
		return wrongf("reference: %v", err)
	}
	if want >= apsp.Inf {
		if reachable {
			return wrongf("d(%d,%d) = %v, reference says unreachable", u, v, got)
		}
		return nil
	}
	if !reachable || math.Float64bits(got) != math.Float64bits(want) {
		return wrongf("d(%d,%d) = %v (reachable %v), reference %v", u, v, got, reachable, want)
	}
	return nil
}
