package registry

import (
	"container/list"
	"context"
	"time"

	"repro/internal/apsp"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/qe"
)

// Entry is one named graph resident in a Registry: an apsp.Oracle plus
// the qe.Engine serving it, hydrated lazily from the graph's snapshot
// file. Acquire hands out entries with a reference held; every holder
// must Release exactly once. The engine and oracle stay valid for as
// long as the reference is held — eviction of the entry only retires it
// from the registry's table, and the engine is closed when the last
// reference drains, so an in-flight request is never cut off mid-row.
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
	// swapped later by Swap (deltas) and are guarded by reg.mu. Remote
	// entries (AddRemote) have nil g/oracle and carry the cluster plan's
	// vertex count in vertices for List/Info reporting.
	g        *graph.Graph
	oracle   *apsp.Oracle
	engine   *qe.Engine
	sub      *obs.Registry
	vertices int

	// Lifecycle accounting, guarded by reg.mu. refs counts Acquire minus
	// Release; retired means the entry has left the registry's table
	// (evicted, replaced, or removed) and must tear down when refs hits
	// zero; tornDown makes that teardown happen exactly once.
	refs     int
	retired  bool
	tornDown bool
	el       *list.Element // position in the registry's LRU (nil if pinned)
}

// Name returns the graph's registry name.
func (e *Entry) Name() string { return e.name }

// Graph returns the entry's current graph (post-delta if Swap ran).
func (e *Entry) Graph() *graph.Graph {
	e.reg.mu.Lock()
	defer e.reg.mu.Unlock()
	return e.g
}

// Oracle returns the entry's current oracle (post-delta if Swap ran).
func (e *Entry) Oracle() *apsp.Oracle {
	e.reg.mu.Lock()
	defer e.reg.mu.Unlock()
	return e.oracle
}

// Engine returns the query engine serving this graph. It is fixed for
// the entry's lifetime (deltas swap the engine's source, not the
// engine), so no lock is needed: hydration wrote it before ready closed.
func (e *Entry) Engine() *qe.Engine { return e.engine }

// Swap installs a post-delta oracle: the engine's source first, then the
// entry's graph/oracle pointers. Callers serialise their own delta
// application; Swap only makes the installed state consistent for
// concurrent readers.
func (e *Entry) Swap(next *apsp.Oracle) {
	e.engine.SwapSource(next)
	e.reg.mu.Lock()
	e.oracle = next
	e.g = next.G
	e.reg.mu.Unlock()
}

// Release returns the reference Acquire handed out. When the entry has
// been retired (evicted or removed) and this was the last reference, the
// engine is closed — on this goroutine, after the lock is dropped.
func (e *Entry) Release() {
	r := e.reg
	r.mu.Lock()
	e.refs--
	teardown := e.retired && e.refs == 0 && e.engine != nil && !e.tornDown
	if teardown {
		e.tornDown = true
	}
	r.mu.Unlock()
	if teardown {
		e.teardown()
	}
}

// teardown closes the entry's engine. refs is zero and the entry is out
// of the registry table, so no request can reach the engine: the drain
// inside Close is instantaneous, and the timeout is pure paranoia.
func (e *Entry) teardown() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	e.engine.Close(ctx)
}
