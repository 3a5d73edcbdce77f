package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"
)

// The reference is how the benchmark tells the speed of the program from
// the speed of the box. The box is a virtual machine on a shared host, and
// for minutes at a time everything on it runs up to 40 % slower. So beside
// the daemons of a closed-loop workload runs a reference server — this
// binary under -reference: fixed code, no part of the program measured —
// on the same processor, and every segment of the measured window ends
// with a slice of the same closed loop against it. What the reference
// answers per second in that slice, over what it answers on a quiet box, is
// the speed of the box in that segment, and the segment's values are
// divided by it (README.md, "The reference").

const (
	// refSlice is the part of every segment that goes to the reference.
	refSlice = 300 * time.Millisecond
	// refNominalQPS is what one client gets from the reference per second
	// on the reference box when the host is quiet. It only fixes the scale:
	// the metrics read as they would on a quiet box.
	refNominalQPS = 26000.0
)

var refBody = []byte(`{"u":1234,"v":5678,"reachable":true,"distance":12.5}` + "\n")

// serveReference is the reference server. It speaks as oracled does where
// the harness listens: a "serving on" line, a health route.
func serveReference(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Printf("serving on http://%s\n", ln.Addr())
	return http.Serve(ln, referenceHandler())
}

func referenceHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {})
	mux.HandleFunc("/ref", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		if _, err := strconv.Atoi(q.Get("u")); err != nil {
			http.Error(w, "u", http.StatusBadRequest)
			return
		}
		if _, err := strconv.Atoi(q.Get("v")); err != nil {
			http.Error(w, "v", http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(refBody)))
		w.Write(refBody)
	})
	return mux
}

// reference is the running reference server and the one connection to it.
type reference struct {
	d *daemon
	c *conn
	n int // requests sent so far
}

func (h *harness) startReference() (*reference, error) {
	d, err := h.spawn(h.self, "/healthz", "-reference")
	if err != nil {
		return nil, err
	}
	return &reference{d: d, c: newConn(d.url)}, nil
}

func (r *reference) close() { r.c.close() }

// speed runs the closed loop against the reference for d and returns the
// speed of the box: answers per second over refNominalQPS.
func (r *reference) speed(d time.Duration) (float64, error) {
	t0 := time.Now()
	n := 0
	for time.Since(t0) < d {
		url := r.d.url + "/ref?u=" + strconv.Itoa(r.n%hotSetSize) + "&v=" + strconv.Itoa(r.n%7919)
		resp, err := r.c.hc.Get(url)
		if err != nil {
			return 0, fmt.Errorf("reference: %w", err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("reference: status %d: %v", resp.StatusCode, err)
		}
		r.n++
		n++
	}
	return float64(n) / time.Since(t0).Seconds() / refNominalQPS, nil
}
