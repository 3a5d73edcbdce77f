// Package obs provides the lightweight observability primitives of the
// serving daemon and of the results the algorithms return: monotonic
// counters, gauges, exponential-bucket latency histograms, and named phase
// timers. Everything is safe for concurrent use and cheap enough to leave
// enabled unconditionally (counters and histogram observations are a
// handful of atomic adds).
//
// There is no process-wide registry. The daemon creates its one Registry,
// hands it (or a per-graph Sub view of it) to the serving components, and
// publishes it into the expvar namespace, where it renders as one JSON
// object. Algorithm packages write to no registry: they report on the
// value they return — an oracle's BuildPhases, a cycle basis's Timing —
// and the serving code that owns the value records it.
package obs

import (
	"expvar"
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonic event counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n may be any int64; callers use counters for gauges of work
// done, which only grows).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// String renders the count; Counter implements expvar.Var.
func (c *Counter) String() string { return fmt.Sprintf("%d", c.v.Load()) }

// Gauge is an instantaneous level — resident graphs, admission-queue
// depth — that moves both ways, unlike the monotonic Counter. Add returns
// the post-update value so callers can gate on the level they just
// produced (an admission queue rejects when its own Add crosses the
// bound) without a second atomic read.
type Gauge struct{ v atomic.Int64 }

// Set replaces the level.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the level by delta (which may be negative) and returns the
// new value.
func (g *Gauge) Add(delta int64) int64 { return g.v.Add(delta) }

// Inc adds one and returns the new value.
func (g *Gauge) Inc() int64 { return g.v.Add(1) }

// Dec subtracts one and returns the new value.
func (g *Gauge) Dec() int64 { return g.v.Add(-1) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// String renders the level; Gauge implements expvar.Var.
func (g *Gauge) String() string { return fmt.Sprintf("%d", g.v.Load()) }

// numBuckets covers [1µs, 2³¹µs ≈ 36min) in powers of two, with the first
// and last buckets absorbing underflow and overflow.
const numBuckets = 32

// Histogram records durations in exponential buckets: bucket i counts
// observations with ceil(µs) in [2^(i-1), 2^i). It answers approximate
// quantiles with one-bucket resolution, which is all a latency dashboard
// needs, and costs three atomic adds per observation.
type Histogram struct {
	count   atomic.Int64
	sumNs   atomic.Int64
	buckets [numBuckets]atomic.Int64
}

func bucketOf(d time.Duration) int {
	if d < 0 {
		d = 0
	}
	us := uint64(d.Microseconds())
	b := bits.Len64(us) // 0 for <1µs, k for [2^(k-1), 2^k) µs
	if b >= numBuckets {
		b = numBuckets - 1
	}
	return b
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.count.Add(1)
	h.sumNs.Add(int64(d))
	h.buckets[bucketOf(d)].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Mean returns the mean observed duration, or 0 with no observations.
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sumNs.Load() / n)
}

// Quantile returns an upper bound on the q-quantile (0 ≤ q ≤ 1) at bucket
// resolution: the upper edge of the first bucket whose cumulative count
// reaches q·total.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := int64(q * float64(total))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i := 0; i < numBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= target {
			return time.Duration(uint64(1)<<uint(i)) * time.Microsecond
		}
	}
	return time.Duration(uint64(1)<<uint(numBuckets)) * time.Microsecond
}

// String renders a JSON summary; Histogram implements expvar.Var.
func (h *Histogram) String() string {
	return fmt.Sprintf(`{"count":%d,"mean_us":%d,"p50_us":%d,"p99_us":%d}`,
		h.Count(), h.Mean().Microseconds(),
		h.Quantile(0.50).Microseconds(), h.Quantile(0.99).Microseconds())
}

// Phases accumulates named durations in first-recorded order — the build
// phases of an oracle, say. Recording the same name again adds to it, so a
// registry's Phases accumulates across every value recorded into it.
type Phases struct {
	mu    sync.Mutex
	order []string
	dur   map[string]time.Duration
}

// Record adds d under name. A nil Phases records nothing, so code that
// only sometimes runs under a timer takes a *Phases without branching.
func (p *Phases) Record(name string, d time.Duration) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dur == nil {
		p.dur = make(map[string]time.Duration)
	}
	if _, seen := p.dur[name]; !seen {
		p.order = append(p.order, name)
	}
	p.dur[name] += d
}

// Add records every phase of o into p, in o's recording order: the
// timings a returned value carries, folded into a registry's phase set.
func (p *Phases) Add(o *Phases) {
	if o == nil {
		return
	}
	o.mu.Lock()
	order, dur := slices.Clone(o.order), maps.Clone(o.dur)
	o.mu.Unlock()
	for _, name := range order {
		p.Record(name, dur[name])
	}
}

// Start begins timing a phase; invoke the returned func to stop and record.
//
//	defer phases.Start("aptable")()
func (p *Phases) Start(name string) func() {
	t0 := time.Now()
	return func() { p.Record(name, time.Since(t0)) }
}

// Get returns the accumulated duration for name.
func (p *Phases) Get(name string) time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dur[name]
}

// Total sums every phase.
func (p *Phases) Total() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	var t time.Duration
	for _, d := range p.dur {
		t += d
	}
	return t
}

// String renders the phases as JSON in recording order; Phases implements
// expvar.Var.
func (p *Phases) String() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	var b strings.Builder
	b.WriteByte('{')
	for i, name := range p.order {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%q:%d", name+"_us", p.dur[name].Microseconds())
	}
	b.WriteByte('}')
	return b.String()
}

// Registry is a concurrent-safe namespace of metrics, itself an expvar.Var
// rendering every member as one JSON object.
//
// A Registry is either a root (NewRegistry) owning the metric map, or a
// prefixed view of a root (Sub). Views delegate every lookup to the root
// with their prefix prepended, so a component wired against a *Registry —
// the query engine, say — works unmodified whether it was handed the root
// or a per-tenant view: the same code registers "qe.pairs" either at the
// root or as "g.<name>.qe.pairs".
//
// A nil *Registry is valid and records nowhere: every getter hands out a
// fresh detached metric, Sub returns nil and String renders "{}", so a
// component built from a zero-value config needs no fallback registry.
type Registry struct {
	mu   sync.Mutex
	vars map[string]expvar.Var

	// parent/prefix make this registry a view: non-nil parent means every
	// operation delegates to parent with prefix prepended to the name.
	// parent is always a root (Sub collapses nested views), so delegation
	// is at most one hop.
	parent *Registry
	prefix string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{vars: make(map[string]expvar.Var)}
}

// Sub returns a view of r that prepends prefix to every metric name: a
// counter obtained as Sub("g.a.").Counter("qe.hits") is the same object
// as Counter("g.a.qe.hits") on the root, so per-tenant metric namespacing
// needs no changes in the instrumented component. Sub of a view composes
// the prefixes (still one delegation hop), and the view's String renders
// only the metrics under its prefix, with the prefix stripped.
func (r *Registry) Sub(prefix string) *Registry {
	if r == nil {
		return nil
	}
	root, prefix := r.root(prefix)
	return &Registry{parent: root, prefix: prefix}
}

// root resolves a view to its root and the name's full key there.
func (r *Registry) root(name string) (*Registry, string) {
	if r.parent != nil {
		return r.parent, r.prefix + name
	}
	return r, name
}

// get returns the metric of kind *T named name, creating it on first use;
// on a nil registry it returns a new detached one. A name already bound
// to another kind panics: two components disagreeing about a metric is a
// programming error, not something to render.
func get[T any, P interface {
	*T
	expvar.Var
}](r *Registry, name string) P {
	if r == nil {
		return new(T)
	}
	r, name = r.root(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.vars[name]
	if !ok {
		v = P(new(T))
		r.vars[name] = v
	}
	m, ok := v.(P)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q is a %T, requested as a %T", name, v, m))
	}
	return m
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter { return get[Counter](r, name) }

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge { return get[Gauge](r, name) }

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram { return get[Histogram](r, name) }

// Phases returns the named phase set, creating it on first use.
func (r *Registry) Phases(name string) *Phases { return get[Phases](r, name) }

// Attach binds name to v, a metric that exists before any registry does —
// a package-level counter no returned value owns. Attaching the same
// metric again is a no-op; a name bound to anything else panics.
func (r *Registry) Attach(name string, v expvar.Var) {
	if r == nil {
		return
	}
	r, name = r.root(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.vars[name]; ok && old != v {
		panic(fmt.Sprintf("obs: metric %q is already bound", name))
	}
	r.vars[name] = v
}

// String renders every metric, sorted by name, as one JSON object. On a
// Sub view only the metrics under the view's prefix render, with the
// prefix stripped, so every tenant's stats read with the same names.
func (r *Registry) String() string {
	if r == nil {
		return "{}"
	}
	// Render outside the lock: an attached metric's String is not ours.
	root, prefix := r.root("")
	root.mu.Lock()
	names := make([]string, 0, len(root.vars))
	for n := range root.vars {
		if strings.HasPrefix(n, prefix) {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	vars := make([]expvar.Var, len(names))
	for i, n := range names {
		vars[i] = root.vars[n]
	}
	root.mu.Unlock()
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%q:%s", strings.TrimPrefix(n, prefix), vars[i].String())
	}
	b.WriteByte('}')
	return b.String()
}

// Publish registers r in the expvar namespace under name, so it appears in
// /debug/vars. Publishing the same name twice is a no-op rather than the
// panic expvar.Publish raises, which keeps it safe to call from multiple
// servers in one process (and from tests).
func (r *Registry) Publish(name string) {
	if expvar.Get(name) == nil {
		expvar.Publish(name, r)
	}
}
