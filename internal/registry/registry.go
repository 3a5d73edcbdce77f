// Package registry turns one serving process into a multi-tenant graph
// host: many named graphs per daemon, each an apsp.Oracle + qe.Engine
// pair hydrated lazily from a snapshot directory (one <name>.snap per
// graph, as written by cmd/apsp -snapshot or oracled -save-snapshot).
// The paper's decomposition already makes each graph an independent
// build-once/serve-many unit; the registry adds the fleet discipline
// around a shelf of them:
//
//   - lazy singleflight hydration: the first query against a cold graph
//     triggers exactly one snapshot load, however many requests race it —
//     the rest wait on the same hydration and share the result;
//   - capacity-bounded LRU: at most MaxGraphs unpinned graphs stay
//     resident; hydrating one more evicts the least-recently-used,
//     preferring graphs nobody holds. Eviction drops the entry — oracle
//     and engine — from the table; a request that still holds it
//     finishes on it, and the garbage collector takes it after that;
//   - per-graph limits: every hydrated graph gets its own engine built
//     from one qe.Config (admission slots, queue depth, deadlines), so
//     tenants cannot starve each other;
//   - per-graph metrics: each graph's qe.* and delta.* metrics register
//     under a "g.<name>." prefix via obs.Registry.Sub, next to the
//     registry's own registry.{graphs,hydrations,evictions,misses} and
//     the snapshot.loads of its hydrations.
//
// Registries are safe for concurrent use. The reserved name "default"
// carries the single-graph compatibility surface: a daemon serving one
// graph registers it as a pinned static entry under DefaultGraph, and
// every unnamed /v1 route resolves to it.
package registry

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"

	"repro/internal/apsp"
	"repro/internal/obs"
	"repro/internal/qe"
)

// DefaultGraph is the reserved name of the single-graph compatibility
// entry: legacy one-graph daemons pin their oracle under it, and the
// unnamed query routes resolve to it.
const DefaultGraph = "default"

// SnapshotExt is the file extension of one graph's snapshot in the
// registry directory.
const SnapshotExt = ".snap"

// DefaultMaxGraphs is the resident-graph bound when Config.MaxGraphs
// is 0.
const DefaultMaxGraphs = 16

// Typed failures of the registry surface.
var (
	// ErrUnknownGraph reports a name with no registered snapshot (HTTP
	// layers map it to 404).
	ErrUnknownGraph = errors.New("registry: unknown graph")
	// ErrBadName reports a name outside [a-zA-Z0-9._-]{1,128} (or a
	// dots-only path component); such names never reach the filesystem.
	ErrBadName = errors.New("registry: invalid graph name")
	// ErrReadOnly reports an admin operation (Register/Remove) on a
	// registry with no snapshot directory.
	ErrReadOnly = errors.New("registry: no snapshot directory configured")
	// ErrBadSnapshot reports an uploaded snapshot that failed decode
	// validation; nothing was installed.
	ErrBadSnapshot = errors.New("registry: invalid snapshot")
	// ErrPinned reports Remove of a pinned (static) entry.
	ErrPinned = errors.New("registry: graph is pinned")
	// ErrClosed reports any operation after Close.
	ErrClosed = errors.New("registry: closed")
)

// nameRE admits exactly the characters that are safe as a single path
// component on every platform we serve from.
var nameRE = regexp.MustCompile(`^[a-zA-Z0-9._-]{1,128}$`)

// ValidName reports whether name is a legal graph name: 1–128 characters
// of [a-zA-Z0-9._-], excluding the dots-only names ("." , "..", …) so a
// name can never traverse out of the snapshot directory. Every exported
// entry point validates with it before touching the filesystem.
func ValidName(name string) bool {
	return nameRE.MatchString(name) && strings.Trim(name, ".") != ""
}

// Config configures a Registry. The zero value is a closed-world,
// static-only registry (no snapshot directory, default capacity).
type Config struct {
	// Dir is the snapshot directory: one <name>.snap per graph. Empty
	// means no hydration source — only static entries serve, and
	// Register/Remove fail with ErrReadOnly.
	Dir string
	// MaxGraphs bounds resident unpinned graphs (0 resolves to
	// DefaultMaxGraphs; values below 1 clamp to 1).
	MaxGraphs int
	// Engine configures every hydrated graph's own engine, so one tenant's
	// batch storm fills its own admission queue, not its neighbours';
	// cmd/oracled passes the single-graph engine flags' config. Its Reg is
	// replaced per graph by this registry's "g.<name>." view.
	Engine qe.Config
	// Reg receives the registry's metrics and, under "g.<name>." views,
	// each graph's engine and delta metrics; nil keeps them detached.
	Reg *obs.Registry
}

// Registry hosts the named graphs of one process.
type Registry struct {
	dir    string
	max    int
	engine qe.Config
	reg    *obs.Registry

	mu     sync.Mutex
	closed bool
	known  map[string]bool   // names with a snapshot file (or static)
	live   map[string]*Entry // hydrating + hydrated entries
	lru    *list.List        // unpinned live entries; front = most recent

	graphs     *obs.Gauge   // resident graphs (hydrating + live + pinned)
	hydrations *obs.Counter // completed snapshot hydrations
	evictions  *obs.Counter // entries dropped by capacity, replace, remove
	misses     *obs.Counter // Acquires that found no resident entry

	// hydrateHook, when set (tests only), runs on the hydrating
	// goroutine after the entry is resident-as-hydrating and before the
	// snapshot is read — the seam the evict-while-hydrating and
	// singleflight tests order themselves with.
	hydrateHook func(name string)
}

// Open builds a registry over cfg, scanning cfg.Dir (when set) for
// *.snap files to learn the initially known graph names. Hydration stays
// lazy: nothing is loaded until a graph's first Acquire.
func Open(cfg Config) (*Registry, error) {
	max := cfg.MaxGraphs
	if max == 0 {
		max = DefaultMaxGraphs
	}
	if max < 1 {
		max = 1
	}
	r := &Registry{
		dir:    cfg.Dir,
		max:    max,
		engine: cfg.Engine,
		reg:    cfg.Reg,
		known:  make(map[string]bool),
		live:   make(map[string]*Entry),
		lru:    list.New(),

		graphs:     cfg.Reg.Gauge("registry.graphs"),
		hydrations: cfg.Reg.Counter("registry.hydrations"),
		evictions:  cfg.Reg.Counter("registry.evictions"),
		misses:     cfg.Reg.Counter("registry.misses"),
	}
	if cfg.Dir != "" {
		ents, err := os.ReadDir(cfg.Dir)
		if err != nil {
			return nil, fmt.Errorf("registry: scan %s: %w", cfg.Dir, err)
		}
		for _, de := range ents {
			name, ok := strings.CutSuffix(de.Name(), SnapshotExt)
			if !ok || de.IsDir() || !ValidName(name) {
				continue
			}
			r.known[name] = true
		}
	}
	return r, nil
}

// MaxGraphs returns the resident-graph capacity.
func (r *Registry) MaxGraphs() int { return r.max }

// Dir returns the snapshot directory ("" for static-only registries).
func (r *Registry) Dir() string { return r.dir }

func (r *Registry) snapPath(name string) string {
	return filepath.Join(r.dir, name+SnapshotExt)
}

// AddStatic registers a pre-built oracle/engine pair under name as a
// pinned entry: resident immediately, never evicted, not counted against
// MaxGraphs. It is the single-graph compatibility hook — the daemon that
// built (or snapshot-loaded) one oracle at boot pins it under
// DefaultGraph with an engine whose metrics live unprefixed at the
// registry's root, exactly as the pre-registry daemon exported them.
func (r *Registry) AddStatic(name string, o *apsp.Oracle, engine *qe.Engine) {
	r.pin(&Entry{name: name, g: o.G, oracle: o, engine: engine})
}

// AddRemote registers an engine-only pinned entry: a cluster frontend
// serves its rows through a fan-out source (internal/shard), whose plan
// holds the graph, partition, forest and A but no block tables. The entry
// exposes none of them, so Entry.Oracle and Entry.Graph return nil for
// it — endpoints that need local structure (path reconstruction, deltas,
// the cycle basis) answer 503 against such an entry. vertices is the
// plan's vertex count, reported by List/Info in place of the graph's.
func (r *Registry) AddRemote(name string, engine *qe.Engine, vertices int) {
	r.pin(&Entry{name: name, engine: engine, vertices: vertices})
}

// pin makes e a ready, pinned entry with its metrics at the registry's
// root, and resident under its name.
func (r *Registry) pin(e *Entry) {
	e.reg, e.pinned, e.ready, e.sub = r, true, make(chan struct{}), r.reg.Sub("")
	close(e.ready)
	r.mu.Lock()
	r.known[e.name] = true
	r.live[e.name] = e
	r.graphs.Set(int64(len(r.live)))
	r.mu.Unlock()
}

// Acquire resolves name to a resident entry, hydrating it from the
// snapshot directory if cold, and returns it with one reference held —
// the caller must Release exactly once, after its last use of the
// entry's oracle/engine. Concurrent Acquires of a cold graph coalesce
// onto a single hydration; ctx bounds only this caller's wait for it.
//
// The warm path (entry resident and ready) takes one mutex, bumps the
// reference count and the LRU position, and performs no allocation — a
// warm named-graph lookup adds nothing to the engine's zero-alloc query
// path.
func (r *Registry) Acquire(ctx context.Context, name string) (*Entry, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrClosed
	}
	if e := r.live[name]; e != nil {
		e.refs++
		if e.el != nil {
			r.lru.MoveToFront(e.el)
		}
		r.mu.Unlock()
		return r.await(ctx, e)
	}
	r.misses.Inc()
	if !r.known[name] {
		// A snapshot dropped into the directory out-of-band (scp, a
		// sidecar syncer) is picked up on its first miss.
		if r.dir == "" || !ValidName(name) {
			r.mu.Unlock()
			return nil, fmt.Errorf("registry: %q: %w", name, ErrUnknownGraph)
		}
		if _, err := os.Stat(r.snapPath(name)); err != nil {
			r.mu.Unlock()
			return nil, fmt.Errorf("registry: %q: %w", name, ErrUnknownGraph)
		}
		r.known[name] = true
	}
	e := &Entry{name: name, reg: r, ready: make(chan struct{}), refs: 1}
	r.live[name] = e
	e.el = r.lru.PushFront(e)
	r.graphs.Set(int64(len(r.live)))
	// Make room before the load, so resident memory peaks at capacity,
	// not capacity+1.
	r.evictOverLocked()
	r.mu.Unlock()
	return r.hydrate(e)
}

// await blocks until e's hydration completes (or ctx expires), returning
// the entry with the caller's reference intact on success. A ready entry
// never asks ctx for its Done channel, which a request context makes on
// first use.
func (r *Registry) await(ctx context.Context, e *Entry) (*Entry, error) {
	select {
	case <-e.ready:
	default:
		select {
		case <-e.ready:
		case <-ctx.Done():
			e.Release()
			return nil, fmt.Errorf("registry: waiting for %q: %w", e.name, ctx.Err())
		}
	}
	if e.err != nil {
		e.Release()
		return nil, e.err
	}
	return e, nil
}

// hydrate loads e's snapshot and publishes the oracle/engine pair. It
// runs on the first acquirer's goroutine; coalesced acquirers wait on
// e.ready. On failure the entry is dropped and every waiter gets the
// error.
func (r *Registry) hydrate(e *Entry) (*Entry, error) {
	if hook := r.hydrateHook; hook != nil {
		hook(e.name)
	}
	o, err := r.readSnapshot(e.name)
	if err != nil {
		r.mu.Lock()
		e.err = fmt.Errorf("registry: hydrate %q: %w", e.name, err)
		r.dropLocked(e)
		e.refs-- // the hydrator's own reference dies with the entry
		r.mu.Unlock()
		close(e.ready)
		return nil, e.err
	}
	sub := r.reg.Sub("g." + e.name + ".")
	ecfg := r.engine
	ecfg.Reg = sub
	engine := qe.New(o, ecfg)
	r.mu.Lock()
	e.g, e.oracle, e.engine, e.sub = o.G, o, engine, sub
	r.mu.Unlock()
	close(e.ready)
	r.hydrations.Inc()
	r.reg.Phases("snapshot").Record("load", o.BuildPhases.Get("snapshot.load"))
	r.reg.Counter("snapshot.loads").Inc()
	// If the entry was evicted while hydrating, it is already out of the
	// table; this acquirer (and any waiters) still serve from it.
	return e, nil
}

// readSnapshot decodes one snapshot file into an oracle; hydrate records
// the load (snapshot.loads and the "snapshot" phases' load timer), once
// per hydration.
func (r *Registry) readSnapshot(name string) (*apsp.Oracle, error) {
	f, err := os.Open(r.snapPath(name))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return apsp.ReadOracle(f)
}

// evictOverLocked drops least-recently-used unpinned entries until the
// resident count fits MaxGraphs, preferring entries nobody holds over
// held ones.
func (r *Registry) evictOverLocked() {
	for r.lru.Len() > r.max {
		victim := (*Entry)(nil)
		for el := r.lru.Back(); el != nil; el = el.Prev() {
			if e := el.Value.(*Entry); e.refs == 0 {
				victim = e
				break
			}
		}
		if victim == nil {
			// Everything is held: drop the coldest anyway; its holders
			// finish on it. Capacity is a residency bound, not a hard
			// ceiling on in-flight work.
			victim = r.lru.Back().Value.(*Entry)
		}
		r.dropLocked(victim)
		r.evictions.Inc()
	}
}

// dropLocked removes e from the live table and LRU, so the next Acquire
// of its name hydrates afresh.
func (r *Registry) dropLocked(e *Entry) {
	if r.live[e.name] == e {
		delete(r.live, e.name)
	}
	if e.el != nil {
		r.lru.Remove(e.el)
		e.el = nil
	}
	r.graphs.Set(int64(len(r.live)))
}

// Close marks the registry closed: Acquire, Register and Remove fail
// with ErrClosed from then on. An entry already handed out keeps serving
// its holder. Close never waits, so the context goes unused.
func (r *Registry) Close(context.Context) error {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	return nil
}
