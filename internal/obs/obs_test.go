package obs

import (
	"encoding/json"
	"expvar"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("events")
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("events").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	var h Histogram
	for i := 0; i < 90; i++ {
		h.Observe(10 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(5 * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if p50 := h.Quantile(0.50); p50 > time.Millisecond {
		t.Fatalf("p50 = %v, want ≤ 1ms", p50)
	}
	if p99 := h.Quantile(0.99); p99 < time.Millisecond {
		t.Fatalf("p99 = %v, want ≥ 1ms", p99)
	}
	// Extremes must not index out of range.
	h.Observe(0)
	h.Observe(-time.Second)
	h.Observe(24 * time.Hour)
	if h.Quantile(1.0) <= 0 {
		t.Fatal("q=1 quantile not positive")
	}
	var raw map[string]int64
	if err := json.Unmarshal([]byte(h.String()), &raw); err != nil {
		t.Fatalf("histogram String is not JSON: %v", err)
	}
}

func TestPhases(t *testing.T) {
	var p Phases
	p.Record("bcc", 2*time.Millisecond)
	p.Record("blocks", 3*time.Millisecond)
	p.Record("bcc", 1*time.Millisecond) // accumulates
	if got := p.Get("bcc"); got != 3*time.Millisecond {
		t.Fatalf("bcc = %v", got)
	}
	if got := p.Total(); got != 6*time.Millisecond {
		t.Fatalf("total = %v", got)
	}
	stop := p.Start("aptable")
	stop()
	if p.Get("aptable") < 0 {
		t.Fatal("negative phase duration")
	}
	var raw map[string]int64
	if err := json.Unmarshal([]byte(p.String()), &raw); err != nil {
		t.Fatalf("phases String is not JSON: %v", err)
	}
	if _, ok := raw["bcc_us"]; !ok {
		t.Fatalf("phases JSON missing bcc_us: %s", p.String())
	}
}

func TestRegistryJSONAndPublish(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.requests").Add(3)
	r.Histogram("a.latency").Observe(time.Millisecond)
	r.Phases("build").Record("bcc", time.Millisecond)
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(r.String()), &raw); err != nil {
		t.Fatalf("registry String is not JSON: %v\n%s", err, r.String())
	}
	for _, k := range []string{"a.requests", "a.latency", "build"} {
		if _, ok := raw[k]; !ok {
			t.Fatalf("registry JSON missing %q: %s", k, r.String())
		}
	}
	// Publishing twice must not panic.
	r.Publish("obs-test-registry")
	r.Publish("obs-test-registry")
}

func TestRegistryConcurrentMixedUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Counter("c").Inc()
				r.Histogram("h").Observe(time.Duration(i) * time.Microsecond)
				r.Phases("p").Record("x", time.Microsecond)
				_ = r.String()
			}
		}(w)
	}
	wg.Wait()
	if r.Counter("c").Value() != 1600 {
		t.Fatalf("c = %d", r.Counter("c").Value())
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	if v := g.Inc(); v != 1 {
		t.Fatalf("Inc returned %d, want 1", v)
	}
	if v := g.Add(5); v != 6 {
		t.Fatalf("Add(5) returned %d, want 6", v)
	}
	if v := g.Dec(); v != 5 {
		t.Fatalf("Dec returned %d, want 5", v)
	}
	g.Set(-3)
	if g.Value() != -3 {
		t.Fatalf("Value = %d, want -3", g.Value())
	}
	if g.String() != "-3" {
		t.Fatalf("String = %q, want -3", g.String())
	}
}

func TestGaugeConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Gauge("depth").Inc()
				r.Gauge("depth").Dec()
			}
		}()
	}
	wg.Wait()
	if v := r.Gauge("depth").Value(); v != 0 {
		t.Fatalf("balanced inc/dec left gauge at %d", v)
	}
}

func TestRegistryRendersGauges(t *testing.T) {
	r := NewRegistry()
	r.Gauge("q.depth").Set(7)
	r.Counter("q.requests").Inc()
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(r.String()), &raw); err != nil {
		t.Fatalf("registry String is not JSON: %v\n%s", err, r.String())
	}
	if string(raw["q.depth"]) != "7" {
		t.Fatalf("gauge rendered as %s, want 7", raw["q.depth"])
	}
}

func TestSubPrefixesNames(t *testing.T) {
	root := NewRegistry()
	sub := root.Sub("g.a.")
	sub.Counter("qe.hits").Add(3)
	sub.Gauge("qe.rows").Set(5)
	sub.Histogram("qe.lat").Observe(time.Millisecond)
	sub.Phases("build").Record("bcc", time.Millisecond)

	// The view and the root name the same objects: a prefixed lookup on
	// the root must collide with the view's un-prefixed one.
	if root.Counter("g.a.qe.hits") != sub.Counter("qe.hits") {
		t.Fatalf("sub counter is not the root's prefixed counter")
	}
	if got := root.Counter("g.a.qe.hits").Value(); got != 3 {
		t.Fatalf("root sees %d through the prefixed name, want 3", got)
	}
	if root.Gauge("g.a.qe.rows") != sub.Gauge("qe.rows") {
		t.Fatalf("sub gauge is not the root's prefixed gauge")
	}
	if root.Histogram("g.a.qe.lat") != sub.Histogram("qe.lat") {
		t.Fatalf("sub histogram is not the root's prefixed histogram")
	}
	if root.Phases("g.a.build") != sub.Phases("build") {
		t.Fatalf("sub phases is not the root's prefixed phases")
	}
}

func TestSubCollisionAcrossViews(t *testing.T) {
	root := NewRegistry()
	a1 := root.Sub("g.a.")
	a2 := root.Sub("g.a.")
	b := root.Sub("g.b.")
	a1.Counter("hits").Inc()
	a2.Counter("hits").Inc()
	b.Counter("hits").Inc()
	if got := root.Counter("g.a.hits").Value(); got != 2 {
		t.Fatalf("two views of one prefix diverged: %d, want 2", got)
	}
	if got := root.Counter("g.b.hits").Value(); got != 1 {
		t.Fatalf("distinct prefix leaked: %d, want 1", got)
	}
	// Nested subs compose prefixes and still delegate to the root.
	nested := a1.Sub("deep.")
	nested.Counter("x").Inc()
	if got := root.Counter("g.a.deep.x").Value(); got != 1 {
		t.Fatalf("nested sub missed the root: %d, want 1", got)
	}
}

func TestSubStringRendersScopedView(t *testing.T) {
	root := NewRegistry()
	root.Counter("top").Add(9)
	sub := root.Sub("g.a.")
	sub.Counter("qe.hits").Add(4)
	sub.Gauge("qe.rows").Set(2)

	var scoped map[string]json.RawMessage
	if err := json.Unmarshal([]byte(sub.String()), &scoped); err != nil {
		t.Fatalf("sub String is not JSON: %v\n%s", err, sub.String())
	}
	if string(scoped["qe.hits"]) != "4" || string(scoped["qe.rows"]) != "2" {
		t.Fatalf("scoped view missing members: %v", scoped)
	}
	if _, leaked := scoped["top"]; leaked {
		t.Fatalf("scoped view rendered an out-of-prefix metric: %v", scoped)
	}
	// The root renders everything under the full prefixed names.
	var all map[string]json.RawMessage
	if err := json.Unmarshal([]byte(root.String()), &all); err != nil {
		t.Fatalf("root String is not JSON: %v", err)
	}
	for _, want := range []string{"top", "g.a.qe.hits", "g.a.qe.rows"} {
		if _, ok := all[want]; !ok {
			t.Fatalf("root rendering missing %q: %v", want, all)
		}
	}
}

func TestSubExpvarRendering(t *testing.T) {
	root := NewRegistry()
	root.Sub("g.ring.").Counter("qe.cache.hits").Add(11)
	root.Publish("obs_sub_expvar_test")
	v := expvar.Get("obs_sub_expvar_test")
	if v == nil {
		t.Fatalf("registry not published")
	}
	var all map[string]json.RawMessage
	if err := json.Unmarshal([]byte(v.String()), &all); err != nil {
		t.Fatalf("published registry is not JSON: %v", err)
	}
	if string(all["g.ring.qe.cache.hits"]) != "11" {
		t.Fatalf("expvar rendering missing sub metric: %v", all)
	}
}

// TestNilRegistry: a nil registry hands out working, detached metrics —
// a fresh one per call — and renders as an empty object, so a component
// configured without a registry needs no fallback.
func TestNilRegistry(t *testing.T) {
	var r *Registry
	c := r.Counter("c")
	c.Inc()
	if c.Value() != 1 || r.Counter("c").Value() != 0 {
		t.Fatalf("nil registry counters: %d then %d, want 1 then a fresh 0", c.Value(), r.Counter("c").Value())
	}
	r.Gauge("g").Set(2)
	r.Histogram("h").Observe(time.Millisecond)
	r.Phases("p").Record("x", time.Millisecond)
	r.Attach("a", &Counter{})
	if sub := r.Sub("g.a."); sub != nil {
		t.Fatalf("nil.Sub = %v, want nil", sub)
	}
	r.Sub("g.a.").Counter("qe.pairs").Inc()
	if s := r.String(); s != "{}" {
		t.Fatalf("nil registry renders %s, want {}", s)
	}
	if s := r.Sub("g.a.").String(); s != "{}" {
		t.Fatalf("nil view renders %s, want {}", s)
	}
}

// TestKindConflictPanics: one name is one metric; asking for it as
// another kind is a programming error and panics, through a view too.
func TestKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	r.Sub("g.a.").Gauge("y")
	for name, get := range map[string]func(){
		"counter as gauge":      func() { r.Gauge("x") },
		"counter as phases":     func() { r.Phases("x") },
		"gauge as counter":      func() { r.Counter("g.a.y") },
		"gauge as histogram":    func() { r.Sub("g.").Histogram("a.y") },
		"attach over a counter": func() { r.Attach("x", &Counter{}) },
		"attach over a gauge":   func() { r.Sub("g.a.").Attach("y", &Gauge{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			get()
		}()
	}
	// The same kind again is the same metric.
	if r.Counter("x") != r.Counter("x") {
		t.Fatal("a counter requested twice is two counters")
	}
}

// TestPhasesAdd: Add folds another phase set in, appending its new names
// in its order and summing the ones already present; nil adds nothing.
func TestPhasesAdd(t *testing.T) {
	var p, o Phases
	p.Record("bcc", time.Millisecond)
	o.Record("blocks", 2*time.Millisecond)
	o.Record("bcc", 3*time.Millisecond)
	o.Record("aptable", 4*time.Millisecond)
	p.Add(&o)
	p.Add(nil)
	if got, want := p.String(), `{"bcc_us":4000,"blocks_us":2000,"aptable_us":4000}`; got != want {
		t.Fatalf("after Add: %s, want %s", got, want)
	}
	if got := o.String(); got != `{"blocks_us":2000,"bcc_us":3000,"aptable_us":4000}` {
		t.Fatalf("Add changed its argument: %s", got)
	}
	p.Add(&p) // a set added to itself doubles
	if got := p.Get("bcc"); got != 8*time.Millisecond {
		t.Fatalf("self-Add: bcc = %v, want 8ms", got)
	}
}

// TestAttachRenders: an attached metric renders under its name, at the
// root and through a view, and attaching it again is a no-op.
func TestAttachRenders(t *testing.T) {
	var fallbacks Counter
	fallbacks.Add(3)
	r := NewRegistry()
	r.Attach("apsp.path.fallbacks", &fallbacks)
	r.Attach("apsp.path.fallbacks", &fallbacks)
	r.Sub("g.a.").Attach("x", &fallbacks)
	fallbacks.Inc()
	if got, want := r.String(), `{"apsp.path.fallbacks":4,"g.a.x":4}`; got != want {
		t.Fatalf("root renders %s, want %s", got, want)
	}
	if r.Counter("apsp.path.fallbacks") != &fallbacks {
		t.Fatal("Counter does not return the attached counter")
	}
}
