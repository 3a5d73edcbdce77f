package jobs

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"time"

	"repro/internal/bc"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/qe"
	"repro/internal/snapshot"
)

// Overload backoff: a job chunk rejected by the engine's admission
// control (the interactive tier is saturated) retries with doubling
// sleeps. Background work yielding to foreground queries is the point of
// running jobs through the same admission gate.
const (
	backoffStart = 10 * time.Millisecond
	backoffMax   = 2 * time.Second
)

// bcEmitRows is how many result rows a bc job appends per checkpoint when
// streaming its final score vector.
const bcEmitRows = 4096

// run drives one job from dispatch to a terminal state (or to the
// interrupted-by-shutdown parking state). It is the only goroutine that
// writes the job's files while the job runs.
func (m *Manager) run(j *Job) {
	defer m.wg.Done()
	m.running.Inc()
	defer m.running.Dec()

	ctx, cancel := context.WithCancel(m.base)
	defer cancel()
	j.mu.Lock()
	j.cancel = cancel
	preCancelled := j.cancelReq // Cancel raced the dispatch: honour it
	j.mu.Unlock()
	if preCancelled {
		cancel()
	}

	err := m.runJob(ctx, j)

	j.mu.Lock()
	switch {
	case err == nil:
		j.state = StateCompleted
	case j.cancelReq:
		j.state = StateCancelled
		j.errStr = ""
	case m.base.Err() != nil:
		// Shutdown, not failure: leave the persisted checkpoint in the
		// running state so the next Open re-queues the job, and park the
		// in-memory record as pending for consistency until then.
		j.state = StatePending
	default:
		j.state = StateFailed
		j.errStr = err.Error()
	}
	j.updated = time.Now()
	state := j.state
	j.broadcastLocked()
	j.mu.Unlock()

	switch state {
	case StateCompleted:
		m.completed.Inc()
	case StateCancelled:
		m.cancelled.Inc()
	case StateFailed:
		m.failed.Inc()
	}
	if Terminal(state) {
		// Persisting the terminal state can only fail on a dying disk; the
		// in-memory state is already terminal either way, and a crash
		// before this write re-runs the job's tail, which is idempotent.
		m.persist(j, nil)
	}

	m.mu.Lock()
	m.active--
	m.dispatchLocked()
	m.mu.Unlock()
}

// runJob resolves the graph and hands off to the kind runner. The graph
// reference is held for the entire run, so registry eviction of the graph
// leaves the job computing on it exactly as an in-flight query does.
func (m *Manager) runJob(ctx context.Context, j *Job) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	ref, err := m.cfg.Host(ctx, j.spec.Graph)
	if err != nil {
		return fmt.Errorf("acquire graph %q: %w", j.spec.Graph, err)
	}
	defer ref.Release()
	phases := m.cfg.Reg.Phases("jobs.phase." + j.spec.Kind)

	res, err := os.OpenFile(m.resultsPath(j.id), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer res.Close()
	j.mu.Lock()
	off := j.resultsOff
	j.mu.Unlock()
	if _, err := res.Seek(off, 0); err != nil {
		return err
	}

	switch j.spec.Kind {
	case KindBatchMatrix:
		return m.runBatchMatrix(ctx, j, ref, res, phases)
	case KindBC:
		return m.runBC(ctx, j, ref, res, phases)
	default:
		return fmt.Errorf("%w: kind %q", ErrBadSpec, j.spec.Kind)
	}
}

// commit makes rows durable and checkpoints: fsync the results stream,
// then atomically replace the job file recording the new durable offset.
// The order is the crash-safety invariant — results bytes are on disk
// before any checkpoint claims them.
func (m *Manager) commit(j *Job, res *os.File, wrote int64, rows int64, done int, extra func(w *snapshot.Writer)) error {
	if err := res.Sync(); err != nil {
		return err
	}
	j.mu.Lock()
	j.resultsOff += wrote
	j.rows += rows
	j.done = done
	j.updated = time.Now()
	j.mu.Unlock()
	return m.persist(j, extra)
}

// overloadWait sleeps one backoff step (ctx-aware) after an ErrOverloaded
// rejection, returning the next step.
func (m *Manager) overloadWait(ctx context.Context, step time.Duration) (time.Duration, error) {
	m.backoffs.Inc()
	t := time.NewTimer(step)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return step, ctx.Err()
	case <-t.C:
	}
	if step *= 2; step > backoffMax {
		step = backoffMax
	}
	return step, nil
}

// runBatchMatrix streams the sources × targets distance matrix: one
// NDJSON row per source, chunked through qe.BatchFlat so each chunk is
// one admitted engine request reusing one flat buffer. Unreachable pairs
// are -1, matching /v1/batch. Resume starts at the checkpointed source
// index — rows and sources advance in lockstep for this kind. It reads
// only the engine, so it runs on a cluster frontend's graph too.
func (m *Manager) runBatchMatrix(ctx context.Context, j *Job, ref GraphRef, res *os.File, phases *obs.Phases) error {
	n := ref.Engine().NumVertices()
	sources := j.spec.Sources
	if len(sources) == 0 {
		sources = bc.AllSources(n)
	}
	targets := j.spec.Targets
	if len(targets) == 0 {
		targets = bc.AllSources(n)
	}
	j.mu.Lock()
	j.total = len(sources)
	done := j.done
	j.mu.Unlock()

	chunk := m.cfg.ChunkSize
	flat := make([]graph.Weight, chunk*len(targets))
	line := make([]byte, 0, 32+12*len(targets))
	step := backoffStart
	for done < len(sources) {
		k := chunk
		if k > len(sources)-done {
			k = len(sources) - done
		}
		stop := phases.Start("compute")
		err := ref.Engine().BatchFlat(ctx, sources[done:done+k], targets, flat[:k*len(targets)])
		stop()
		switch {
		case errors.Is(err, qe.ErrOverloaded):
			if step, err = m.overloadWait(ctx, step); err != nil {
				return err
			}
			continue
		case errors.Is(err, qe.ErrBatchTooLarge) && chunk > 1:
			// The engine's pair cap is tighter than chunk×targets; shrink
			// the chunk and retry. chunk == 1 over the cap is a real error.
			chunk /= 2
			continue
		case err != nil:
			return err
		}
		step = backoffStart

		stop = phases.Start("checkpoint")
		var wrote int64
		for i := 0; i < k; i++ {
			line = appendMatrixRow(line[:0], int64(done+i), sources[done+i], flat[i*len(targets):(i+1)*len(targets)])
			nw, err := res.Write(line)
			wrote += int64(nw)
			if err != nil {
				stop()
				return err
			}
		}
		done += k
		err = m.commit(j, res, wrote, int64(k), done, nil)
		stop()
		if err != nil {
			return err
		}
	}
	return nil
}

// appendMatrixRow renders {"i":N,"source":S,"dist":[...]}\n without a
// json.Marshal round-trip (the matrix body is the job's hot loop).
func appendMatrixRow(b []byte, i int64, source int32, dist []graph.Weight) []byte {
	b = append(b, `{"i":`...)
	b = strconv.AppendInt(b, i, 10)
	b = append(b, `,"source":`...)
	b = strconv.AppendInt(b, int64(source), 10)
	b = append(b, `,"dist":[`...)
	for k, d := range dist {
		if k > 0 {
			b = append(b, ',')
		}
		if qe.Unreachable(d) {
			b = append(b, '-', '1')
		} else {
			b = strconv.AppendFloat(b, float64(d), 'g', -1, 64)
		}
	}
	return append(b, ']', '}', '\n')
}

// runBC drives a resumable betweenness computation: compute chunks
// advance done with the accumulation checkpointed (no rows yet), then the
// final score vector streams out in row chunks. A restart mid-compute
// restores the accumulation from the bcstate section; a restart
// mid-emission recomputes nothing — done == total and the persisted
// accumulation replays the remaining rows from the checkpointed row
// count. It runs Brandes over the graph itself, so a graph served with
// no local copy (a cluster frontend's) fails the job with ErrNoGraph.
func (m *Manager) runBC(ctx context.Context, j *Job, ref GraphRef, res *os.File, phases *obs.Phases) error {
	g := ref.Graph()
	if g == nil {
		return ErrNoGraph
	}
	n := g.NumVertices()
	var sources []int32
	scale := 1.0
	if j.spec.Samples > 0 {
		sources, scale = bc.SampledSources(n, j.spec.Samples, j.spec.Seed)
	} else {
		sources = bc.AllSources(n)
	}
	c := bc.NewChunked(g, sources, scale, par.Workers())

	// Resume: the job file on disk may carry a bcstate section from the
	// last checkpoint.
	if restored, err := m.restoreBC(j, c); err != nil {
		return err
	} else if restored && (c.Done() != j.status().Done) {
		return fmt.Errorf("bc state says %d sources done, checkpoint meta says %d", c.Done(), j.status().Done)
	}
	j.mu.Lock()
	j.total = c.Total()
	j.mu.Unlock()

	saveState := func(w *snapshot.Writer) { c.EncodeState(w.Section(bcSec)) }
	for c.Done() < c.Total() {
		stop := phases.Start("compute")
		_, err := c.RunChunk(ctx, m.cfg.ChunkSize)
		stop()
		if err != nil {
			return err
		}
		stop = phases.Start("checkpoint")
		err = m.commit(j, res, 0, 0, c.Done(), saveState)
		stop()
		if err != nil {
			return err
		}
	}

	// Emission: stream the scores as {"i":v,"v":v,"score":s} rows, in
	// checkpointed slices so a crash mid-emission resumes at the row
	// count instead of rewriting the file.
	result := c.Result()
	line := make([]byte, 0, 64)
	for {
		j.mu.Lock()
		row := int(j.rows)
		j.mu.Unlock()
		if row >= n {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		end := row + bcEmitRows
		if end > n {
			end = n
		}
		stop := phases.Start("checkpoint")
		var wrote int64
		for v := row; v < end; v++ {
			line = append(line[:0], `{"i":`...)
			line = strconv.AppendInt(line, int64(v), 10)
			line = append(line, `,"v":`...)
			line = strconv.AppendInt(line, int64(v), 10)
			line = append(line, `,"score":`...)
			line = strconv.AppendFloat(line, result.Scores[v], 'g', -1, 64)
			line = append(line, '}', '\n')
			nw, err := res.Write(line)
			wrote += int64(nw)
			if err != nil {
				stop()
				return err
			}
		}
		err := m.commit(j, res, wrote, int64(end-row), c.Done(), saveState)
		stop()
		if err != nil {
			return err
		}
	}
}

// restoreBC loads the bcstate section of j's on-disk checkpoint into c,
// reporting whether there was one.
func (m *Manager) restoreBC(j *Job, c *bc.Chunked) (bool, error) {
	_, restored, err := readJob(m.jobPath(j.id), c.RestoreState)
	if os.IsNotExist(err) {
		return false, nil
	}
	return restored, err
}
