package registry

import (
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/apsp"
	"repro/internal/obs"
	"repro/internal/snapshot"
)

// GraphInfo is one graph's row in List: its lifecycle state and, when
// resident, the served graph's current size.
type GraphInfo struct {
	Name   string `json:"name"`
	State  string `json:"state" doc:"cold | hydrating | live"`
	Pinned bool   `json:"pinned,omitempty"`
	Refs   int    `json:"refs"`
	// Vertices/Edges are the resident graph's current dimensions (they
	// move under deltas); zero for cold graphs.
	Vertices int `json:"vertices,omitempty"`
	Edges    int `json:"edges,omitempty"`
}

// infoLocked builds the GraphInfo row for name; r.mu must be held.
func (r *Registry) infoLocked(name string) GraphInfo {
	info := GraphInfo{Name: name, State: "cold"}
	if e := r.live[name]; e != nil {
		info.Pinned = e.pinned
		info.Refs = e.refs
		select {
		case <-e.ready:
			info.State = "live"
			if e.g != nil {
				info.Vertices = e.g.NumVertices()
				info.Edges = e.g.NumEdges()
			} else {
				// Remote (engine-only) entry: report the cluster plan's
				// vertex count; edge counts live on the shards.
				info.Vertices = e.vertices
			}
		default:
			info.State = "hydrating"
		}
	}
	return info
}

// List returns every known graph, sorted by name.
func (r *Registry) List() []GraphInfo {
	r.mu.Lock()
	out := make([]GraphInfo, 0, len(r.known))
	for name := range r.known {
		out = append(out, r.infoLocked(name))
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Info returns one graph's row and whether the name is known.
func (r *Registry) Info(name string) (GraphInfo, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.known[name] {
		return GraphInfo{}, false
	}
	return r.infoLocked(name), true
}

// StatsView returns the obs view rendering name's metrics: the pinned
// default graph's engine reports at the registry's root (its metrics are
// the legacy unprefixed ones), every hydrated graph under its
// "g.<name>." prefix. The view is valid for cold graphs too — it simply
// renders empty until the first hydration registers metrics.
func (r *Registry) StatsView(name string) *obs.Registry {
	r.mu.Lock()
	if e := r.live[name]; e != nil && e.sub != nil {
		sub := e.sub
		r.mu.Unlock()
		return sub
	}
	r.mu.Unlock()
	return r.reg.Sub("g." + name + ".")
}

// Register installs (or replaces) name's snapshot from src: the bytes
// stream into a temporary file in the snapshot directory, decode-validate
// as a full oracle snapshot, and only then are fsynced and renamed into
// place (snapshot.WriteFile) — a concurrent hydration, or one after a
// crash, reads either the old complete file or the new one, never a torn
// write. Any resident entry for name is dropped (its holders finish on
// the old oracle), so the next Acquire hydrates the new snapshot.
// Returns the validated oracle's dimensions.
func (r *Registry) Register(name string, src io.Reader) (vertices, edges int, err error) {
	if !ValidName(name) {
		return 0, 0, fmt.Errorf("registry: %q: %w", name, ErrBadName)
	}
	if r.dir == "" {
		return 0, 0, ErrReadOnly
	}
	var o *apsp.Oracle
	if err := snapshot.WriteFile(r.snapPath(name), func(tmp *os.File) error {
		if _, err := io.Copy(tmp, src); err != nil {
			return err
		}
		// Validate before admitting: a snapshot that does not decode must
		// never enter the directory, or every future hydration of the name
		// would fail at query time instead of upload time.
		if _, err := tmp.Seek(0, io.SeekStart); err != nil {
			return err
		}
		var derr error
		if o, derr = apsp.ReadOracle(tmp); derr != nil {
			return fmt.Errorf("%w: %v", ErrBadSnapshot, derr)
		}
		return nil
	}); err != nil {
		return 0, 0, fmt.Errorf("registry: register %q: %w", name, err)
	}

	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return 0, 0, ErrClosed
	}
	r.known[name] = true
	if e := r.live[name]; e != nil && !e.pinned {
		r.dropLocked(e)
		r.evictions.Inc()
	}
	r.mu.Unlock()
	return o.G.NumVertices(), o.G.NumEdges(), nil
}

// Remove unregisters name: its snapshot file is deleted and any resident
// entry dropped, like an eviction. Pinned entries cannot be removed.
func (r *Registry) Remove(name string) error {
	if !ValidName(name) {
		return fmt.Errorf("registry: %q: %w", name, ErrBadName)
	}
	if r.dir == "" {
		return ErrReadOnly
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	if e := r.live[name]; e != nil && e.pinned {
		r.mu.Unlock()
		return fmt.Errorf("registry: %q: %w", name, ErrPinned)
	}
	if !r.known[name] {
		r.mu.Unlock()
		return fmt.Errorf("registry: %q: %w", name, ErrUnknownGraph)
	}
	delete(r.known, name)
	if e := r.live[name]; e != nil {
		r.dropLocked(e)
		r.evictions.Inc()
	}
	r.mu.Unlock()
	if err := os.Remove(r.snapPath(name)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("registry: remove %q: %w", name, err)
	}
	return nil
}
