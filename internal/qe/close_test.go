package qe

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestCloseRejectsNewRequests(t *testing.T) {
	e, _ := newTestEngine(&stubSource{n: 8}, Config{MaxInflight: 2})
	if _, err := e.Query(context.Background(), 0, 1); err != nil {
		t.Fatalf("pre-close query: %v", err)
	}
	if err := e.Close(context.Background()); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := e.Query(context.Background(), 0, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close Query error = %v, want ErrClosed", err)
	}
	if _, err := e.Batch(context.Background(), []int32{0}, []int32{1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close Batch error = %v, want ErrClosed", err)
	}
	// Idempotent: a second close returns immediately with no error even
	// though the slots are already held by the first.
	if err := e.Close(context.Background()); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// TestCloseDrainsInflight pins the drain barrier: Close must not return
// while a request is mid-row, and must return promptly once it finishes.
func TestCloseDrainsInflight(t *testing.T) {
	src := &stubSource{n: 8, gate: make(chan struct{}), began: make(chan int32, 1)}
	e, _ := newTestEngine(src, Config{MaxInflight: 1})

	queryDone := make(chan error, 1)
	go func() {
		_, err := e.Query(context.Background(), 3, 1)
		queryDone <- err
	}()
	<-src.began // the query holds the only slot and is blocked in Row

	closeDone := make(chan error, 1)
	go func() { closeDone <- e.Close(context.Background()) }()
	select {
	case err := <-closeDone:
		t.Fatalf("Close returned (%v) while a request was in flight", err)
	case <-time.After(20 * time.Millisecond):
	}

	close(src.gate) // let the in-flight row finish
	if err := <-queryDone; err != nil {
		t.Fatalf("in-flight query failed across Close: %v", err)
	}
	select {
	case err := <-closeDone:
		if err != nil {
			t.Fatalf("close after drain: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("Close did not return after the last request drained")
	}
}

func TestCloseHonoursContext(t *testing.T) {
	src := &stubSource{n: 8, gate: make(chan struct{}), began: make(chan int32, 1)}
	e, _ := newTestEngine(src, Config{MaxInflight: 1})
	go e.Query(context.Background(), 0, 1)
	<-src.began

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := e.Close(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Close with stuck request = %v, want DeadlineExceeded", err)
	}
	close(src.gate)
}
