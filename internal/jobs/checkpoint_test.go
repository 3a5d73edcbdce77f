package jobs

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/bc"
	"repro/internal/graph"
	"repro/internal/snapshot"
)

// FuzzReadJob: whatever bytes sit in a job file, readJob — what Open runs
// on every file of the state directory, and a resuming bc job on its own —
// returns a job or an error wrapping one of the snapshot sentinels, and
// never panics.
func FuzzReadJob(f *testing.F) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 2)
	b.AddEdge(2, 0, 3)
	b.AddEdge(2, 3, 1)
	g := b.Build()
	sources := []int32{0, 1, 2, 3}

	dir := f.TempDir()
	m := &Manager{cfg: Config{Dir: dir}}
	now := time.Unix(1700000000, 0)
	matrix := &Job{
		id: "j0000000001", spec: Spec{Kind: KindBatchMatrix, Graph: "g", Sources: []int32{0, 3}, Targets: []int32{1}},
		state: StateRunning, done: 1, total: 2, rows: 1, resultsOff: 40, created: now, updated: now, wake: make(chan struct{}),
	}
	bcJob := &Job{
		id: "j0000000002", spec: Spec{Kind: KindBC, Graph: "g", Samples: 4, Seed: 7},
		state: StateRunning, done: 2, total: 4, created: now, updated: now, wake: make(chan struct{}),
	}
	c := bc.NewChunked(g, sources, 1, 1)
	if err := m.persist(matrix, nil); err != nil {
		f.Fatal(err)
	}
	if err := m.persist(bcJob, func(w *snapshot.Writer) { c.EncodeState(w.Section(bcSec)) }); err != nil {
		f.Fatal(err)
	}
	if j, restored, err := readJob(m.jobPath(bcJob.id), bc.NewChunked(g, sources, 1, 1).RestoreState); err != nil || !restored || j.spec.Seed != 7 {
		f.Fatalf("bc job seed does not round-trip: %v (restored %v)", err, restored)
	}
	for _, j := range []*Job{matrix, bcJob} {
		raw, err := os.ReadFile(m.jobPath(j.id))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		f.Add(raw[:len(raw)/2])
	}
	f.Add([]byte(snapshot.Magic))
	f.Add([]byte{})

	path := filepath.Join(dir, "j0000000003"+jobExt)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, restore := range []func(*snapshot.Decoder) error{nil, bc.NewChunked(g, sources, 1, 1).RestoreState} {
			j, _, err := readJob(path, restore)
			switch {
			case err == nil && j == nil:
				t.Fatal("no job and no error")
			case err != nil && !snapshotErr(err):
				t.Fatalf("error wraps no snapshot sentinel: %v", err)
			}
		}
	})
}

func snapshotErr(err error) bool {
	for _, s := range []error{snapshot.ErrBadMagic, snapshot.ErrVersionSkew, snapshot.ErrChecksum, snapshot.ErrCorrupt, snapshot.ErrWrongKind} {
		if errors.Is(err, s) {
			return true
		}
	}
	return false
}
