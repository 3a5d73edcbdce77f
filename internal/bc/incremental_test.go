package bc

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/snapshot"
)

func chunkedTestGraph(n, earLen int) *graph.Graph {
	return gen.PlanarEars(n, earLen, gen.Config{MaxWeight: 10}, gen.NewRNG(7))
}

// driveChunked runs c to completion in chunks of k.
func driveChunked(t *testing.T, c *Chunked, k int) *Result {
	t.Helper()
	for c.Done() < c.Total() {
		n, err := c.RunChunk(context.Background(), k)
		if err != nil {
			t.Fatalf("RunChunk: %v", err)
		}
		if n == 0 {
			t.Fatalf("RunChunk made no progress at %d/%d", c.Done(), c.Total())
		}
	}
	return c.Result()
}

// sameScores compares score vectors with a tolerance: chunked and one-shot
// runs fold per-worker accumulators in different orders, so floating-point
// sums may differ in the last bits.
func sameScores(t *testing.T, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("score length %d, want %d", len(got), len(want))
	}
	for v := range got {
		diff := math.Abs(got[v] - want[v])
		tol := 1e-9 * (1 + math.Abs(want[v]))
		if diff > tol {
			t.Fatalf("score[%d] = %v, want %v (diff %v)", v, got[v], want[v], diff)
		}
	}
}

// chunkedRoundTrip encodes c's state into a snapshot container and decodes
// it back, exercising the same section path the job checkpoints use.
func chunkedRoundTrip(t *testing.T, c *Chunked) *snapshot.Decoder {
	t.Helper()
	w := snapshot.NewWriter()
	c.EncodeState(w.Section("bcstate"))
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	r, err := snapshot.NewReader(&buf)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	return r.Section("bcstate")
}

func TestChunkedMatchesParallel(t *testing.T) {
	g := chunkedTestGraph(60, 3)
	want := Parallel(g, 4)
	c := NewChunked(g, AllSources(g.NumVertices()), 1, 4)
	got := driveChunked(t, c, 7)
	sameScores(t, got.Scores, want.Scores)
	if got.Relaxations != want.Relaxations {
		t.Fatalf("relaxations %d, want %d", got.Relaxations, want.Relaxations)
	}
}

func TestChunkedMatchesSampled(t *testing.T) {
	g := chunkedTestGraph(80, 4)
	n := g.NumVertices()
	const k, seed = 25, 42
	want := Sampled(g, k, seed, 3)
	sources, scale := SampledSources(n, k, seed)
	if len(sources) != k || scale != float64(n)/float64(k) {
		t.Fatalf("SampledSources: %d sources scale %v", len(sources), scale)
	}
	c := NewChunked(g, sources, scale, 3)
	got := driveChunked(t, c, 4)
	sameScores(t, got.Scores, want.Scores)
}

func TestSampledSourcesDegenerate(t *testing.T) {
	sources, scale := SampledSources(5, 9, 1)
	if len(sources) != 5 || scale != 1 {
		t.Fatalf("k>=n should degenerate to exact: %d sources scale %v", len(sources), scale)
	}
	for i, s := range sources {
		if s != int32(i) {
			t.Fatalf("sources[%d] = %d", i, s)
		}
	}
}

// TestChunkedResume encodes mid-run state, restores it into a fresh
// Chunked, finishes there, and checks the stitched run matches one-shot.
func TestChunkedResume(t *testing.T) {
	g := chunkedTestGraph(50, 3)
	n := g.NumVertices()
	want := Parallel(g, 2)

	a := NewChunked(g, AllSources(n), 1, 2)
	for a.Done() < n/2 {
		if _, err := a.RunChunk(context.Background(), 5); err != nil {
			t.Fatal(err)
		}
	}

	b := NewChunked(g, AllSources(n), 1, 3) // worker count need not match
	if err := b.RestoreState(chunkedRoundTrip(t, a)); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	if b.Done() != a.Done() {
		t.Fatalf("resumed Done = %d, want %d", b.Done(), a.Done())
	}
	got := driveChunked(t, b, 6)
	sameScores(t, got.Scores, want.Scores)
	if got.Relaxations != want.Relaxations {
		t.Fatalf("relaxations %d, want %d", got.Relaxations, want.Relaxations)
	}
}

func TestChunkedRestoreRejectsMismatch(t *testing.T) {
	g := chunkedTestGraph(30, 3)
	c := NewChunked(g, AllSources(g.NumVertices()), 1, 1)
	if _, err := c.RunChunk(context.Background(), 4); err != nil {
		t.Fatal(err)
	}

	small := chunkedTestGraph(10, 3)
	other := NewChunked(small, AllSources(small.NumVertices()), 1, 1)
	err := other.RestoreState(chunkedRoundTrip(t, c))
	if !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("mismatched restore: err = %v, want ErrCorrupt", err)
	}
}

// TestChunkedCancelDiscardsChunk cancels mid-chunk and checks the chunk is
// fully discarded: Done unchanged, and a subsequent clean run still matches
// the one-shot result (no partial accumulation leaked).
func TestChunkedCancelDiscardsChunk(t *testing.T) {
	g := chunkedTestGraph(40, 3)
	n := g.NumVertices()
	want := Parallel(g, 2)

	c := NewChunked(g, AllSources(n), 1, 2)
	if _, err := c.RunChunk(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	doneBefore := c.Done()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done, err := c.RunChunk(ctx, 10)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled RunChunk: err = %v", err)
	}
	if done != 0 || c.Done() != doneBefore {
		t.Fatalf("cancelled chunk advanced progress: ret %d, Done %d (was %d)", done, c.Done(), doneBefore)
	}

	got := driveChunked(t, c, 10)
	sameScores(t, got.Scores, want.Scores)
	if got.Relaxations != want.Relaxations {
		t.Fatalf("relaxations %d, want %d", got.Relaxations, want.Relaxations)
	}
}
