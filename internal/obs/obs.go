// Package obs provides the lightweight observability primitives used by
// oracle construction, the hetero scheduler, and the serving daemon:
// monotonic counters, exponential-bucket latency histograms, and named
// build-phase timers. Everything is safe for concurrent use and cheap
// enough to leave enabled unconditionally (counters and histogram
// observations are a handful of atomic adds).
//
// Metrics live in a Registry; the process-wide Default registry can be
// exported over HTTP by publishing it into the expvar namespace, where it
// renders as one JSON object under its published name.
package obs

import (
	"expvar"
	"fmt"
	"math/bits"
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
// process-wide Phases accumulates across repeated builds.
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
// A Registry is either a root (NewRegistry) owning the metric maps, or a
// prefixed view of a root (Sub). Views delegate every lookup to the root
// with their prefix prepended, so a component wired against a *Registry —
// the query engine, say — works unmodified whether it was handed the root
// or a per-tenant view: the same code registers "qe.pairs" either at the
// root or as "g.<name>.qe.pairs".
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	phases   map[string]*Phases

	// parent/prefix make this registry a view: non-nil parent means every
	// operation delegates to parent with prefix prepended to the name.
	// parent is always a root (Sub collapses nested views), so delegation
	// is at most one hop.
	parent *Registry
	prefix string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		phases:   make(map[string]*Phases),
	}
}

// Default is the process-wide registry the library wires its metrics into.
var Default = NewRegistry()

// Sub returns a view of r that prepends prefix to every metric name: a
// counter obtained as Sub("g.a.").Counter("qe.hits") is the same object
// as Counter("g.a.qe.hits") on the root, so per-tenant metric namespacing
// needs no changes in the instrumented component. Sub of a view composes
// the prefixes (still one delegation hop), and the view's String renders
// only the metrics under its prefix, with the prefix stripped.
func (r *Registry) Sub(prefix string) *Registry {
	root, base := r, ""
	if r.parent != nil {
		root, base = r.parent, r.prefix
	}
	return &Registry{parent: root, prefix: base + prefix}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r.parent != nil {
		return r.parent.Counter(r.prefix + name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r.parent != nil {
		return r.parent.Gauge(r.prefix + name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r.parent != nil {
		return r.parent.Histogram(r.prefix + name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Phases returns the named phase set, creating it on first use.
func (r *Registry) Phases(name string) *Phases {
	if r.parent != nil {
		return r.parent.Phases(r.prefix + name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.phases[name]
	if p == nil {
		p = &Phases{}
		r.phases[name] = p
	}
	return p
}

// vars snapshots every registered metric of a root registry.
func (r *Registry) vars() map[string]expvar.Var {
	r.mu.Lock()
	vars := make(map[string]expvar.Var, len(r.counters)+len(r.gauges)+len(r.hists)+len(r.phases))
	for n, c := range r.counters {
		vars[n] = c
	}
	for n, g := range r.gauges {
		vars[n] = g
	}
	for n, h := range r.hists {
		vars[n] = h
	}
	for n, p := range r.phases {
		vars[n] = p
	}
	r.mu.Unlock()
	return vars
}

// String renders every metric, sorted by name, as one JSON object. On a
// Sub view only the metrics under the view's prefix render, with the
// prefix stripped, so every tenant's stats read with the same names.
func (r *Registry) String() string {
	root, prefix := r, ""
	if r.parent != nil {
		root, prefix = r.parent, r.prefix
	}
	all := root.vars()
	names := make([]string, 0, len(all))
	for n := range all {
		if strings.HasPrefix(n, prefix) {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%q:%s", strings.TrimPrefix(n, prefix), all[n].String())
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
