package main

import (
	"bufio"
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestListenerHardening drives the server every boot mode listens with
// over a real socket: a peer that stalls mid request line is disconnected
// once the header timeout passes instead of holding its goroutine forever,
// and a header block over the cap is refused with 431 — at 2 MiB and at
// 128 KiB, which net/http's 1 MiB default would have read in full.
func TestListenerHardening(t *testing.T) {
	srv := newHTTPServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = io.WriteString(w, "ok")
	}))
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.IdleTimeout != idleTimeout || srv.MaxHeaderBytes != maxHeaderBytes ||
		readHeaderTimeout <= 0 || idleTimeout <= 0 || maxHeaderBytes <= 0 {
		t.Fatalf("listener limits not applied: header timeout %v, idle timeout %v, header cap %d",
			srv.ReadHeaderTimeout, srv.IdleTimeout, srv.MaxHeaderBytes)
	}
	// The production constant is seconds; the mechanism is the same at a
	// test-sized value.
	const headerTimeout = 150 * time.Millisecond
	srv.ReadHeaderTimeout = headerTimeout

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serve(ctx, srv, ln, time.Second) }()
	defer func() {
		stop()
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	}()

	dial := func() net.Conn {
		t.Helper()
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		_ = c.SetDeadline(time.Now().Add(10 * time.Second))
		return c
	}

	stalled := dial()
	defer stalled.Close()
	t0 := time.Now()
	if _, err := io.WriteString(stalled, "GET /v1/dist"); err != nil {
		t.Fatal(err)
	}
	// The server closes (net/http may first write a 408); either way the
	// read ends well before the 10 s client deadline.
	if _, err := io.ReadAll(stalled); err != nil {
		t.Fatalf("stalled request was not disconnected: %v", err)
	}
	if waited := time.Since(t0); waited < headerTimeout || waited > 20*headerTimeout {
		t.Fatalf("stalled request held for %v, header timeout is %v", waited, headerTimeout)
	}

	for _, size := range []int{2 << 20, 128 << 10} {
		c := dial()
		go func() {
			// The server answers and closes before reading all of it, so
			// the tail of this write may fail; the status is what counts.
			_, _ = io.WriteString(c, "GET / HTTP/1.1\r\nHost: x\r\nX-Pad: "+strings.Repeat("a", size)+"\r\n\r\n")
		}()
		resp, err := http.ReadResponse(bufio.NewReader(c), nil)
		if err != nil {
			t.Fatalf("%d-byte header: %v", size, err)
		}
		resp.Body.Close()
		c.Close()
		if resp.StatusCode != http.StatusRequestHeaderFieldsTooLarge {
			t.Fatalf("%d-byte header: status %d, want 431", size, resp.StatusCode)
		}
	}

	// An ordinary request on the same listener is still served.
	c := dial()
	defer c.Close()
	if _, err := io.WriteString(c, "GET / HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(c), nil)
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("plain request after the hostile ones: %v, %v", resp, err)
	}
	resp.Body.Close()
}
