// Package jobs is the persistent async job tier: whole-graph computations
// (full/rectangular distance matrices, exact or sampled betweenness
// centrality) whose cost dwarfs one HTTP request's deadline run here as
// first-class jobs — submitted, observed, streamed, cancelled, and, after
// a daemon restart, resumed from their last durable checkpoint rather
// than restarted.
//
// The design in one paragraph: a Manager owns a directory of job files.
// Each job is two files — <id>.job, a snapshot container holding the spec
// and the resumable progress state, and <id>.ndjson, the append-only
// results stream. The runner loop alternates compute chunks with
// checkpoints: results are appended and fsynced first, then the job file
// is atomically replaced recording how many bytes of results are durable,
// so a crash between the two only ever replays work, never loses or
// duplicates durable output (resume truncates the results file back to
// the checkpointed offset). Readers stream the NDJSON file up to the
// durable offset and park on a per-job broadcast until more becomes
// durable, giving Last-Event-ID-style reconnect: a client that remembers
// its byte offset resumes exactly where it left off.
//
// Jobs are multi-tenant: each is bound to a named graph, resolved through
// a Host callback (the daemon wires this to registry.Acquire), and the
// runner holds the graph reference for the whole run, so it finishes on
// the graph even if LRU eviction drops it. Scheduling is fair per graph — ready jobs
// queue FIFO per graph and dispatch round-robin across graphs — and the
// compute itself goes through the engine's ordinary admission control,
// retreating with capped backoff when the interactive tier has the engine
// saturated.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/qe"
)

// Job kinds.
const (
	KindBatchMatrix = "batch_matrix" // distance matrix via qe.BatchFlat row scheduling
	KindBC          = "bc"           // exact/sampled betweenness centrality via bc.Chunked
)

// Job states. The machine is pending → running → one of the three
// terminal states; a daemon restart moves persisted running back to
// pending (resume), never to a terminal state.
const (
	StatePending   = "pending"
	StateRunning   = "running"
	StateCompleted = "completed"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// Terminal reports whether state is one no job ever leaves.
func Terminal(state string) bool {
	return state == StateCompleted || state == StateFailed || state == StateCancelled
}

// Typed errors; the HTTP layer maps them onto envelope codes.
var (
	ErrUnknownJob = errors.New("jobs: unknown job")
	ErrBadSpec    = errors.New("jobs: invalid spec")
	ErrBadOffset  = errors.New("jobs: results offset not at a durable line boundary")
	ErrClosed     = errors.New("jobs: manager closed")
	// ErrNoGraph fails a job that needs the graph itself on a graph
	// served without a local copy (a cluster frontend's).
	ErrNoGraph = errors.New("jobs: graph has no local copy")
)

// Spec is the submitted description of a job. Graph names a registry
// graph. For batch_matrix, empty Sources/Targets mean "every vertex" —
// the full APSP matrix is spec {} — and a rectangular slab is any
// explicit pair of lists. For bc, Samples == 0 is the exact computation;
// Samples > 0 estimates from that many Brandes–Pich sources drawn with
// Seed (deterministic, so a resumed job re-derives the identical source
// list from the spec instead of persisting it).
type Spec struct {
	Kind    string  `json:"kind" doc:"batch_matrix | bc"`
	Graph   string  `json:"graph" doc:"registry graph name; defaults to the pinned default graph"`
	Sources []int32 `json:"sources,omitempty" doc:"batch_matrix: source vertices (empty = all)"`
	Targets []int32 `json:"targets,omitempty" doc:"batch_matrix: target vertices (empty = all)"`
	Samples int     `json:"samples,omitempty" doc:"bc: sampled source count (0 = exact)"`
	Seed    uint64  `json:"seed,omitempty" doc:"bc: sampling seed"`
}

// Status is one job's externally visible state, safe to marshal.
type Status struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"`
	Graph string `json:"graph"`
	State string `json:"state" doc:"pending | running | completed | failed | cancelled"`
	// Progress is Done/Total in [0,1]; 0 while Total is still unknown
	// (before the graph is first hydrated), 1 exactly on completion.
	Progress float64 `json:"progress" doc:"done/total in [0,1]"`
	Done     int     `json:"done"`  // work units finished (sources)
	Total    int     `json:"total"` // work units overall; 0 = not yet known
	// Rows and ResultsBytes describe the durable results stream: rows of
	// NDJSON and the byte offset a reconnecting client may resume from.
	Rows         int64  `json:"rows" doc:"durable NDJSON result rows"`
	ResultsBytes int64  `json:"results_bytes" doc:"durable result bytes; valid resume offset"`
	Error        string `json:"error,omitempty" doc:"terminal error (state failed)"`
	CreatedUnix  int64  `json:"created_unix"`
	UpdatedUnix  int64  `json:"updated_unix"`
}

// GraphRef is one acquired graph: the served graph (nil when it has no
// local copy, as on a cluster frontend), its query engine, and the
// release of the reference that keeps both alive. registry.Entry
// satisfies it.
type GraphRef interface {
	Graph() *graph.Graph
	Engine() *qe.Engine
	Release()
}

// Host resolves a graph name to an acquired reference. The manager calls
// it once per job run and releases the result when the run ends, so a
// running job holds its graph exactly as an in-flight query does.
type Host func(ctx context.Context, name string) (GraphRef, error)

// Config configures a Manager.
type Config struct {
	// Dir is the job state directory; it is created if absent.
	Dir string
	// Host resolves graph names at run time. Required.
	Host Host
	// Known validates graph names at submit time; nil accepts any name
	// (the job then fails at run time if the host cannot resolve it).
	Known func(name string) bool
	// Concurrency is how many jobs run simultaneously (default 2).
	Concurrency int
	// Workers is the per-job compute parallelism (default par.Workers).
	Workers int
	// ChunkSize is the work units (sources) per checkpoint (default 64):
	// the resume replay bound and the progress/cancellation granularity.
	ChunkSize int
	// Reg receives jobs.* metrics (nil keeps them detached).
	Reg *obs.Registry
}

// Manager owns the job table, the per-graph fair scheduler, and the state
// directory.
type Manager struct {
	cfg Config

	submitted *obs.Counter
	completed *obs.Counter
	failed    *obs.Counter
	cancelled *obs.Counter
	resumed   *obs.Counter
	backoffs  *obs.Counter
	running   *obs.Gauge

	mu     sync.Mutex
	jobs   map[string]*Job
	ids    []string          // sorted ascending, for keyset pagination
	queues map[string][]*Job // graph → FIFO of pending jobs
	ring   []string          // round-robin ring of graphs with pending jobs
	nextID int64
	active int
	closed bool

	base context.Context // parent of every job context; Close cancels it
	stop context.CancelFunc
	wg   sync.WaitGroup
}

// Job is one job's in-memory state. All mutable fields are guarded by mu;
// the spec and id are immutable after creation.
type Job struct {
	id   string
	spec Spec

	mu         sync.Mutex
	state      string
	errStr     string
	done       int
	total      int
	rows       int64
	resultsOff int64 // durable bytes of the .ndjson stream
	created    time.Time
	updated    time.Time
	cancelReq  bool // Cancel was called (distinguishes cancel from shutdown)
	cancel     context.CancelFunc
	wake       chan struct{} // closed+replaced on every durable change
}

func (j *Job) status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := Status{
		ID: j.id, Kind: j.spec.Kind, Graph: j.spec.Graph,
		State: j.state, Done: j.done, Total: j.total,
		Rows: j.rows, ResultsBytes: j.resultsOff, Error: j.errStr,
		CreatedUnix: j.created.Unix(), UpdatedUnix: j.updated.Unix(),
	}
	if j.total > 0 {
		s.Progress = float64(j.done) / float64(j.total)
	}
	return s
}

// wakeChan returns the current broadcast channel; it is closed (and
// replaced) whenever the durable offset or state changes.
func (j *Job) wakeChan() chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.wake
}

// broadcast wakes every parked streamer. Callers hold j.mu.
func (j *Job) broadcastLocked() {
	close(j.wake)
	j.wake = make(chan struct{})
}

// Open loads the job directory and returns a running manager: terminal
// jobs are listed, pending jobs are queued, and jobs that were running
// when the previous process died are re-queued to resume from their last
// checkpoint.
func Open(cfg Config) (*Manager, error) {
	if cfg.Host == nil {
		return nil, fmt.Errorf("jobs: Config.Host is required")
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 2
	}
	if cfg.Workers <= 0 {
		cfg.Workers = par.Workers()
	}
	if cfg.ChunkSize <= 0 {
		cfg.ChunkSize = 64
	}
	m := &Manager{
		cfg:       cfg,
		submitted: cfg.Reg.Counter("jobs.submitted"),
		completed: cfg.Reg.Counter("jobs.completed"),
		failed:    cfg.Reg.Counter("jobs.failed"),
		cancelled: cfg.Reg.Counter("jobs.cancelled"),
		resumed:   cfg.Reg.Counter("jobs.resumed"),
		backoffs:  cfg.Reg.Counter("jobs.overload_backoffs"),
		running:   cfg.Reg.Gauge("jobs.running"),
		jobs:      make(map[string]*Job),
		queues:    make(map[string][]*Job),
	}
	m.base, m.stop = context.WithCancel(context.Background())
	if err := m.loadDir(); err != nil {
		return nil, err
	}
	m.mu.Lock()
	m.dispatchLocked()
	m.mu.Unlock()
	return m, nil
}

// Submit validates the spec, persists the job as pending, and queues it.
func (m *Manager) Submit(spec Spec) (Status, error) {
	if spec.Kind != KindBatchMatrix && spec.Kind != KindBC {
		return Status{}, fmt.Errorf("%w: kind %q (want %q or %q)",
			ErrBadSpec, spec.Kind, KindBatchMatrix, KindBC)
	}
	if spec.Graph == "" {
		return Status{}, fmt.Errorf("%w: graph name is required", ErrBadSpec)
	}
	if m.cfg.Known != nil && !m.cfg.Known(spec.Graph) {
		return Status{}, fmt.Errorf("%w: unknown graph %q", ErrBadSpec, spec.Graph)
	}
	if spec.Samples < 0 {
		return Status{}, fmt.Errorf("%w: samples %d < 0", ErrBadSpec, spec.Samples)
	}
	if spec.Kind == KindBC && (len(spec.Sources) > 0 || len(spec.Targets) > 0) {
		return Status{}, fmt.Errorf("%w: bc jobs take no sources/targets", ErrBadSpec)
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return Status{}, ErrClosed
	}
	m.nextID++
	id := fmt.Sprintf("j%010d", m.nextID)
	now := time.Now()
	j := &Job{
		id: id, spec: spec, state: StatePending,
		created: now, updated: now, wake: make(chan struct{}),
	}
	if spec.Kind == KindBatchMatrix && len(spec.Sources) > 0 {
		j.total = len(spec.Sources)
	}
	m.insertLocked(j)
	m.mu.Unlock()

	// Persist before queueing: an accepted job survives a crash, and the
	// runner (the job file's only writer once dispatched) cannot start
	// until the pending record is durable.
	if err := m.persist(j, nil); err != nil {
		m.mu.Lock()
		m.removeLocked(j)
		m.mu.Unlock()
		return Status{}, err
	}
	m.submitted.Inc()
	m.mu.Lock()
	m.enqueueLocked(j)
	m.dispatchLocked()
	m.mu.Unlock()
	return j.status(), nil
}

// Get returns one job's status.
func (m *Manager) Get(id string) (Status, error) {
	m.mu.Lock()
	j := m.jobs[id]
	m.mu.Unlock()
	if j == nil {
		return Status{}, ErrUnknownJob
	}
	return j.status(), nil
}

// List returns every job's status, sorted by id.
func (m *Manager) List() []Status {
	m.mu.Lock()
	js := make([]*Job, len(m.ids))
	for k, id := range m.ids {
		js[k] = m.jobs[id]
	}
	m.mu.Unlock()
	items := make([]Status, len(js))
	for k, j := range js {
		items[k] = j.status()
	}
	return items
}

// Cancel requests cancellation: a pending job goes terminal immediately,
// a running job's context is cancelled and the runner rolls it to
// cancelled at the next chunk boundary. Cancelling a terminal job is
// idempotent — the terminal status is returned unchanged.
func (m *Manager) Cancel(id string) (Status, error) {
	// Lock order m.mu → j.mu, matching dispatchLocked, so a pending job
	// cannot be picked up by the dispatcher while we retire it here.
	m.mu.Lock()
	j := m.jobs[id]
	if j == nil {
		m.mu.Unlock()
		return Status{}, ErrUnknownJob
	}
	j.mu.Lock()
	switch {
	case Terminal(j.state):
		j.mu.Unlock()
		m.mu.Unlock()
		return j.status(), nil
	case j.state == StateRunning:
		j.cancelReq = true
		cancel := j.cancel
		j.mu.Unlock()
		m.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return j.status(), nil
	default: // pending: never reached a runner, retire it here
		j.cancelReq = true
		j.state = StateCancelled
		j.updated = time.Now()
		j.broadcastLocked()
		j.mu.Unlock()
		m.unqueueLocked(j)
		m.mu.Unlock()
	}
	m.cancelled.Inc()
	if err := m.persist(j, nil); err != nil {
		return Status{}, err
	}
	return j.status(), nil
}

// Close stops the manager: no further submissions, running jobs are
// interrupted at their next cancellation point (their last checkpoint
// stays on disk in the running state, so the next Open resumes them), and
// the call returns when every runner has exited or ctx expires.
func (m *Manager) Close(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.mu.Unlock()
	m.stop()
	done := make(chan struct{})
	go func() { m.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("jobs: close: %w", ctx.Err())
	}
}

// insertLocked adds j to the job table and the sorted id index.
func (m *Manager) insertLocked(j *Job) {
	m.jobs[j.id] = j
	i := sort.SearchStrings(m.ids, j.id)
	m.ids = append(m.ids, "")
	copy(m.ids[i+1:], m.ids[i:])
	m.ids[i] = j.id
}

func (m *Manager) removeLocked(j *Job) {
	delete(m.jobs, j.id)
	if i := sort.SearchStrings(m.ids, j.id); i < len(m.ids) && m.ids[i] == j.id {
		m.ids = append(m.ids[:i], m.ids[i+1:]...)
	}
	m.unqueueLocked(j)
}

// enqueueLocked appends j to its graph's FIFO, entering the graph into
// the round-robin ring if it had no pending work.
func (m *Manager) enqueueLocked(j *Job) {
	g := j.spec.Graph
	if len(m.queues[g]) == 0 {
		m.ring = append(m.ring, g)
	}
	m.queues[g] = append(m.queues[g], j)
}

func (m *Manager) unqueueLocked(j *Job) {
	g := j.spec.Graph
	q := m.queues[g]
	for i, qj := range q {
		if qj == j {
			m.queues[g] = append(q[:i], q[i+1:]...)
			break
		}
	}
	if len(m.queues[g]) == 0 {
		delete(m.queues, g)
		for i, name := range m.ring {
			if name == g {
				m.ring = append(m.ring[:i], m.ring[i+1:]...)
				break
			}
		}
	}
}

// dispatchLocked fills free run slots: the head of the ring names the
// graph whose turn it is; its oldest pending job starts, and the graph
// rotates to the back of the ring (or leaves it when drained). Two
// tenants with queued backlogs therefore alternate regardless of how
// deep either backlog is.
func (m *Manager) dispatchLocked() {
	if m.closed {
		return
	}
	for m.active < m.cfg.Concurrency && len(m.ring) > 0 {
		g := m.ring[0]
		q := m.queues[g]
		j := q[0]
		if len(q) == 1 {
			delete(m.queues, g)
			m.ring = m.ring[1:]
		} else {
			m.queues[g] = q[1:]
			m.ring = append(m.ring[1:], g)
		}
		j.mu.Lock()
		j.state = StateRunning
		j.updated = time.Now()
		j.mu.Unlock()
		m.active++
		m.wg.Add(1)
		go m.run(j)
	}
}
