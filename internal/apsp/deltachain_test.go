package apsp

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/snapshot"
)

// chainScript is a mixed weight/insert/delete script for triChain(3),
// valid when applied in order.
func chainScript() []Delta {
	return []Delta{
		{Kind: DeltaWeight, Edge: 0, W: 4},
		{Kind: DeltaInsert, U: 0, V: 3, W: 1},
		{Kind: DeltaInsert, U: 6, V: 7, W: 2}, // grows the graph
		{Kind: DeltaDelete, Edge: 5},
	}
}

// TestDeltaChainRoundTrip: an oracle that applied a delta script saves
// with WriteTo like a built one, and the file decodes — no delta is
// applied on load — to an oracle answering Float64bits-equal to the live
// one and to a rebuild on the mutated graph.
func TestDeltaChainRoundTrip(t *testing.T) {
	g := triChain(3)
	ds := chainScript()
	applied, _, err := NewOracle(g).ApplyDelta(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	data := snapshotOf(t, applied)

	if got := recordedPhases(t, applied); got != "delta.apply" {
		t.Fatalf("an apply recorded phases %q, want only delta.apply", got)
	}
	loaded, err := ReadOracle(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got := recordedPhases(t, loaded); got != "snapshot.load" {
		t.Fatalf("ReadOracle recorded phases %q, want only snapshot.load: a load applies no delta", got)
	}

	mutated, err := MutateGraph(g, ds)
	if err != nil {
		t.Fatal(err)
	}
	assertSameAnswers(t, loaded, mutated)
	n := mutated.NumVertices()
	for u := int32(0); u < int32(n); u++ {
		for v := int32(0); v < int32(n); v++ {
			if a, b := loaded.Query(u, v), applied.Query(u, v); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("d(%d,%d): loaded %v vs live %v", u, v, a, b)
			}
		}
	}
}

// chainFile is o's snapshot plus the "deltas" section older builds
// appended for a loader to replay (chain format v1, no records: the
// section's presence is what is refused, not its payload).
func chainFile(t testing.TB, o *Oracle) []byte {
	return sealOracle(t, o, 0, encodeTable, func(e *snapshot.Encoder) { encodeTable(e, o.apTab) }, func(sw *snapshot.Writer) {
		d := sw.Section("deltas")
		d.U32(1)
		d.U64(0)
	})
}

// TestDeltaChainVersionSkew: a delta-chain file is version skew, not its
// base. The container skips unknown sections, so without the check the
// file would load as the pre-delta oracle and answer stale distances.
func TestDeltaChainVersionSkew(t *testing.T) {
	data := chainFile(t, NewOracle(triChain(2)))
	if _, err := ReadOracle(bytes.NewReader(data)); !errors.Is(err, snapshot.ErrVersionSkew) {
		t.Fatalf("delta-chain file: err = %v, want ErrVersionSkew", err)
	}
}

// typedSnapshotErr reports whether err wraps one of the snapshot
// sentinels every hostile-input path must resolve to.
func typedSnapshotErr(err error) bool {
	return errors.Is(err, snapshot.ErrCorrupt) || errors.Is(err, snapshot.ErrChecksum) ||
		errors.Is(err, snapshot.ErrBadMagic) || errors.Is(err, snapshot.ErrVersionSkew) ||
		errors.Is(err, snapshot.ErrWrongKind)
}
