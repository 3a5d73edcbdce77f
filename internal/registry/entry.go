package registry

import (
	"container/list"
	"context"
	"sync"
	"time"

	"repro/internal/apsp"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/qe"
)

// Entry is one named graph resident in a Registry: an apsp.Oracle plus
// the qe.Engine serving it, hydrated lazily from the graph's snapshot
// file. Acquire hands out entries with a reference held; every holder
// must Release exactly once. Eviction only drops the entry from the
// registry's table: the engine holds nothing to release, so a holder
// keeps answering from it and the garbage collector takes it after the
// last one lets go.
type Entry struct {
	name   string
	reg    *Registry
	pinned bool // static entries (the default graph) are never evicted

	// ready is closed exactly once, when hydration finishes (successfully
	// or not). The serving fields below are written before the close, so
	// any goroutine that observed the close may read them without a lock;
	// err is only non-nil on hydration failure.
	ready chan struct{}
	err   error

	// engine and sub are immutable once ready; g and oracle can be
	// swapped later by Apply (deltas) and are guarded by reg.mu. Remote
	// entries (AddRemote) have nil g/oracle and carry the cluster plan's
	// vertex count in vertices for List/Info reporting.
	g        *graph.Graph
	oracle   *apsp.Oracle
	engine   *qe.Engine
	sub      *obs.Registry
	vertices int

	// applyMu serialises Apply: one delta applier per graph.
	applyMu sync.Mutex

	// Guarded by reg.mu. refs counts Acquire minus Release: eviction
	// prefers entries nobody holds, and List reports it.
	refs int
	el   *list.Element // position in the registry's LRU (nil if pinned or dropped)
}

// Name returns the graph's registry name.
func (e *Entry) Name() string { return e.name }

// Graph returns the entry's current graph (post-delta if Apply ran).
func (e *Entry) Graph() *graph.Graph {
	e.reg.mu.Lock()
	defer e.reg.mu.Unlock()
	return e.g
}

// Oracle returns the entry's current oracle (post-delta if Apply ran).
func (e *Entry) Oracle() *apsp.Oracle {
	e.reg.mu.Lock()
	defer e.reg.mu.Unlock()
	return e.oracle
}

// Engine returns the query engine serving this graph. It is fixed for
// the entry's lifetime (deltas swap the engine's source, not the
// engine), so no lock is needed: hydration wrote it before ready closed.
func (e *Entry) Engine() *qe.Engine { return e.engine }

// Apply runs one delta script against the entry's oracle: it applies ds,
// hands the result to save when save is non-nil, and only then swaps it
// in — the engine's source first, then the entry's graph/oracle pointers,
// so a concurrent reader sees the pre- or post-delta oracle, never a mix.
// A failed apply or save leaves the entry serving what it served before.
// Positional edge IDs make the order of scripts part of their meaning, so
// one graph's appliers queue on the entry's own lock; appliers of
// different graphs never wait for each other. save runs under that lock,
// so saved files follow the same order; it must not call Apply on the
// entry. The entry must hold a local oracle (not an AddRemote entry).
// A swapped-in apply is recorded under the entry's own metrics view:
// delta.* at the root for the pinned default graph, g.<name>.delta.*
// for a named one.
func (e *Entry) Apply(ctx context.Context, ds []apsp.Delta, save func(*apsp.Oracle) error) (*apsp.Oracle, *apsp.DeltaResult, error) {
	e.applyMu.Lock()
	defer e.applyMu.Unlock()
	next, res, err := e.Oracle().ApplyDelta(ctx, ds)
	if err != nil {
		return nil, nil, err
	}
	if save != nil {
		if err := save(next); err != nil {
			return nil, nil, err
		}
	}
	e.engine.SwapSource(next)
	e.reg.mu.Lock()
	e.oracle = next
	e.g = next.G
	e.reg.mu.Unlock()
	e.sub.Phases("delta").Record("apply", next.BuildPhases.Get("delta.apply"))
	e.sub.Counter("delta.applies").Inc()
	e.sub.Counter("delta.deltas").Add(int64(len(ds)))
	e.sub.Counter("delta.blocks.touched").Add(int64(res.TouchedBlocks))
	e.sub.Counter("delta.blocks.reused").Add(int64(res.ReusedBlocks))
	if res.RebuildFallback {
		e.sub.Counter("delta.rebuild_fallback").Inc()
	}
	// Histogram buckets are exponential in the observed value; feeding the
	// block count through the µs unit reuses them as count buckets.
	e.sub.Histogram("delta.touched_blocks").Observe(time.Duration(res.TouchedBlocks) * time.Microsecond)
	return next, res, nil
}

// Release returns the reference Acquire handed out.
func (e *Entry) Release() {
	e.reg.mu.Lock()
	e.refs--
	e.reg.mu.Unlock()
}
