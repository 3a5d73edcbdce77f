package jobs

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/snapshot"
)

// Job files are EARSNAPS containers with a "meta" section (spec + progress
// + durable results offset) and, for bc jobs mid-run, a "bcstate" section
// holding the resumable accumulation (bc.Chunked.EncodeState). The results
// stream lives next to it as <id>.ndjson.
const (
	jobExt     = ".job"
	resultsExt = ".ndjson"
	metaSec    = "meta"
	bcSec      = "bcstate"

	jobMetaVersion = 1
)

func (m *Manager) jobPath(id string) string     { return filepath.Join(m.cfg.Dir, id+jobExt) }
func (m *Manager) resultsPath(id string) string { return filepath.Join(m.cfg.Dir, id+resultsExt) }

// persist atomically replaces j's job file with its current state. extra,
// when non-nil, writes additional sections (the bc accumulation) into the
// same container. The write goes through snapshot.WriteFile (tmp + fsync
// + rename), like every other published file: a crash leaves either the
// previous checkpoint or the new one, never a partial file.
//
// persist is called by the runner between chunks and by Submit/Cancel
// before the job is dispatched; the scheduler guarantees those callers
// never overlap for one job.
func (m *Manager) persist(j *Job, extra func(w *snapshot.Writer)) error {
	w := snapshot.NewWriter()
	e := w.Section(metaSec)

	j.mu.Lock()
	e.U32(jobMetaVersion)
	e.Str(j.id)
	e.Str(j.spec.Kind)
	e.Str(j.spec.Graph)
	e.Str(j.state)
	e.Str(j.errStr)
	e.I64(j.created.Unix())
	e.I64(j.updated.Unix())
	e.I64(int64(j.done))
	e.I64(int64(j.total))
	e.I64(j.rows)
	e.I64(j.resultsOff)
	e.I32s(j.spec.Sources)
	e.I32s(j.spec.Targets)
	e.I64(int64(j.spec.Samples))
	e.U64(j.spec.Seed)
	j.mu.Unlock()

	if extra != nil {
		extra(w)
	}

	if err := snapshot.WriteFile(m.jobPath(j.id), func(f *os.File) error {
		_, err := w.WriteTo(f)
		return err
	}); err != nil {
		return fmt.Errorf("jobs: checkpoint %s: %w", j.id, err)
	}
	j.mu.Lock()
	j.broadcastLocked()
	j.mu.Unlock()
	return nil
}

// readJob decodes one job file into a fresh Job. restore, when non-nil,
// decodes the file's bcstate section, if it has one; restored reports
// whether it did.
func readJob(path string, restore func(*snapshot.Decoder) error) (j *Job, restored bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	r, err := snapshot.NewReader(f)
	if err != nil {
		return nil, false, err
	}
	d := r.Section(metaSec)
	d.Version("jobs: job meta", jobMetaVersion)
	j = &Job{wake: make(chan struct{})}
	j.id = d.Str()
	j.spec.Kind = d.Str()
	j.spec.Graph = d.Str()
	j.state = d.Str()
	j.errStr = d.Str()
	j.created = time.Unix(d.I64(), 0)
	j.updated = time.Unix(d.I64(), 0)
	j.done = int(d.I64())
	j.total = int(d.I64())
	j.rows = d.I64()
	j.resultsOff = d.I64()
	j.spec.Sources = d.I32s()
	j.spec.Targets = d.I32s()
	j.spec.Samples = int(d.I64())
	j.spec.Seed = d.U64()
	if err := d.Finish(); err != nil {
		return nil, false, err
	}
	if restore == nil || !r.Has(bcSec) {
		return j, false, nil
	}
	if err := r.Close(restore(r.Section(bcSec))); err != nil {
		return nil, false, err
	}
	return j, true, nil
}

// loadDir scans the state directory: every job file is decoded, terminal
// jobs enter the table as history, and interrupted jobs (pending or
// running at crash time) have their results stream truncated back to the
// durable offset and are re-queued. Undecodable job files fail Open — a
// corrupt queue should be surfaced at startup, not silently dropped.
func (m *Manager) loadDir() error {
	if m.cfg.Dir == "" {
		return fmt.Errorf("jobs: Config.Dir is required")
	}
	if err := os.MkdirAll(m.cfg.Dir, 0o755); err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	ents, err := os.ReadDir(m.cfg.Dir)
	if err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	var names []string
	for _, ent := range ents {
		if name := ent.Name(); strings.HasSuffix(name, jobExt) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		j, _, err := readJob(filepath.Join(m.cfg.Dir, name), nil)
		if err != nil {
			return fmt.Errorf("jobs: load %s: %w", name, err)
		}
		if want := strings.TrimSuffix(name, jobExt); j.id != want {
			return fmt.Errorf("jobs: load %s: job file names id %q", name, j.id)
		}
		if n, err := strconv.ParseInt(strings.TrimPrefix(j.id, "j"), 10, 64); err == nil && n > m.nextID {
			m.nextID = n
		}
		m.insertLocked(j)
		if Terminal(j.state) {
			continue
		}
		// Interrupted mid-run: roll the results stream back to the last
		// checkpoint's durable offset and queue the job again. Everything
		// past the offset was never acknowledged durable, so truncating
		// replays at most one chunk.
		if j.state == StateRunning {
			m.resumed.Inc()
		}
		if err := truncateResults(m.resultsPath(j.id), j.resultsOff); err != nil {
			return fmt.Errorf("jobs: load %s: %w", name, err)
		}
		j.state = StatePending
		m.enqueueLocked(j)
	}
	return nil
}

// truncateResults rolls the results stream back to off bytes. A missing
// file is fine only when nothing was durable yet.
func truncateResults(path string, off int64) error {
	st, err := os.Stat(path)
	switch {
	case os.IsNotExist(err):
		if off == 0 {
			return nil
		}
		return fmt.Errorf("results stream missing with %d durable bytes", off)
	case err != nil:
		return err
	}
	if st.Size() < off {
		return fmt.Errorf("results stream %d bytes, checkpoint says %d durable", st.Size(), off)
	}
	if st.Size() == off {
		return nil
	}
	return os.Truncate(path, off)
}
