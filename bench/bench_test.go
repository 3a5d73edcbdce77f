package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"
)

// The harness of the smoke test starts this binary as its reference
// server, as the benchmark starts itself.
func TestMain(m *testing.M) {
	for _, a := range os.Args[1:] {
		if a == "-reference" {
			fmt.Fprintln(os.Stderr, serveReference("127.0.0.1:0"))
			os.Exit(1)
		}
	}
	os.Exit(m.Run())
}

func TestSequencesArePureFunctionsOfSeedAndWorkload(t *testing.T) {
	const n = 5000
	mk := map[string]func(seed uint64) sequence{
		"hot":   func(s uint64) sequence { return hotSequence(s, n) },
		"cold":  func(s uint64) sequence { return coldSequence(s, n) },
		"batch": func(s uint64) sequence { return batchSequence(s, n) },
		"mixed": func(s uint64) sequence { return mixedSequence(s, []int{n, 700}) },
	}
	for name, f := range mk {
		a, b, other := f(3), f(3), f(4)
		same, differs := true, false
		// Read b backwards: a request must not depend on what was
		// generated before it.
		for i := 199; i >= 0; i-- {
			if !reflect.DeepEqual(a(i), b(i)) {
				same = false
			}
			if !reflect.DeepEqual(a(i), other(i)) {
				differs = true
			}
		}
		if !same {
			t.Errorf("%s: the same seed gave different requests", name)
		}
		if !differs {
			t.Errorf("%s: another seed gave the same requests", name)
		}
	}
}

func TestColdSequenceNeverRepeatsWithinTheCache(t *testing.T) {
	const n = 5000
	seq := coldSequence(1, n)
	last := map[int32]int{}
	for i := 0; i < 3*n; i++ {
		u := seq(i).u
		if at, ok := last[u]; ok && i-at != n {
			t.Fatalf("source %d seen at %d and %d: reuse distance %d, want %d", u, at, i, i-at, n)
		}
		last[u] = i
	}
	if len(last) != n {
		t.Fatalf("walk covers %d of %d vertices", len(last), n)
	}
}

func TestHotSequenceStaysInTheHotSet(t *testing.T) {
	seq := hotSequence(9, 5000)
	seen := map[int32]bool{}
	for i := 0; i < 4000; i++ {
		seen[seq(i).u] = true
	}
	if len(seen) != hotSetSize {
		t.Fatalf("%d distinct sources, want %d", len(seen), hotSetSize)
	}
}

func TestMedianPercentileSpread(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v", got)
	}
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for q, want := range map[float64]float64{0.5: 50, 0.95: 95, 0.99: 99, 0.999: 100, 1: 100} {
		if got := percentile(s, q); got != want {
			t.Errorf("percentile(%v) = %v, want %v", q, got, want)
		}
	}
	if got := percentile([]float64{7}, 0.95); got != 7 {
		t.Errorf("percentile of one = %v", got)
	}
	if got := spread([]float64{9, 10, 12}); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("spread = %v, want 0.3", got)
	}
}

func TestSegmentArithmetic(t *testing.T) {
	ms := time.Millisecond
	var ss []sample
	// Segment 0: latencies 1..10 ms, all correct. Segment 1: two correct,
	// one failed. A sample at the window's end belongs to no segment.
	for i := 1; i <= 10; i++ {
		ss = append(ss, sample{at: time.Duration(i) * 50 * ms, lat: time.Duration(i) * ms, ok: true})
	}
	ss = append(ss,
		sample{at: 1000 * ms, lat: 2 * ms, ok: true},
		sample{at: 1500 * ms, lat: 4 * ms, ok: true},
		sample{at: 1900 * ms, lat: 90 * ms, ok: false},
		sample{at: 2000 * ms, lat: 1 * ms, ok: true})
	segs := segment(ss, 2, 2*time.Second)
	if segs[0].attempted != 10 || segs[0].correct != 10 || segs[0].p50ms != 5 {
		t.Errorf("segment 0 = %+v", segs[0])
	}
	if segs[1].attempted != 3 || segs[1].correct != 2 || segs[1].p50ms != 2 {
		t.Errorf("segment 1 = %+v", segs[1])
	}
}

// fakeClock is a clock only sleep and the fake daemon advance.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time { c.mu.Lock(); defer c.mu.Unlock(); return c.now }
func (c *fakeClock) Sleep(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestOpenLoopTimesFromDueTimeAndReportsLateness(t *testing.T) {
	// 100 req/s: request i is due at i×10 ms. The fake daemon answers in
	// 1 ms, except request 2, which takes 35 ms. One worker, so requests
	// 3, 4 and 5 become due while it is busy: they go out late, and their
	// latency counts from when they were due.
	clk := &fakeClock{now: time.Unix(0, 0)}
	lg := &loadgen{rate: 100, now: clk.Now, sleep: clk.Sleep}
	lg.fetch = func(c, i int) ([]byte, error) {
		if i == 2 {
			clk.Sleep(35 * time.Millisecond)
		} else {
			clk.Sleep(time.Millisecond)
		}
		return []byte("ok"), nil
	}
	lg.verify = func(c int, body []byte) error { return nil }
	ss := lg.client(0, clk.Now(), 0, 80*time.Millisecond, 0)
	ms := time.Millisecond
	want := []sample{
		{at: 0, lat: 1 * ms, late: 0},
		{at: 10 * ms, lat: 1 * ms, late: 0},
		{at: 20 * ms, lat: 35 * ms, late: 0},
		{at: 30 * ms, lat: 26 * ms, late: 25 * ms}, // sent at 55
		{at: 40 * ms, lat: 17 * ms, late: 16 * ms}, // sent at 56
		{at: 50 * ms, lat: 8 * ms, late: 7 * ms},   // sent at 57
		{at: 60 * ms, lat: 1 * ms, late: 0},
		{at: 70 * ms, lat: 1 * ms, late: 0},
	}
	// Requests 3 to 5 were late because the worker was busy, not because
	// the generator overslept: it slept for every request but those.
	for i, g := range ss {
		if g.slept != (i == 1 || i == 2 || i >= 6) {
			t.Errorf("request %d: slept %v", i, g.slept)
		}
	}
	if len(ss) != len(want) {
		t.Fatalf("%d samples, want %d", len(ss), len(want))
	}
	for i, w := range want {
		if g := ss[i]; g.at != w.at || g.lat != w.lat || g.late != w.late || !g.ok {
			t.Errorf("request %d: at %v lat %v late %v ok %v, want at %v lat %v late %v", i, g.at, g.lat, g.late, g.ok, w.at, w.lat, w.late)
		}
	}
	// The request due at 80 ms was not sent: the next window starts with it.
	if got := lg.next.Load(); got != 8 {
		t.Errorf("next index = %d, want 8", got)
	}
}

func TestClosedLoopSendsWhenTheAnswerIsIn(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	lg := &loadgen{now: clk.Now, sleep: clk.Sleep}
	var asked []int
	lg.fetch = func(c, i int) ([]byte, error) {
		asked = append(asked, i)
		clk.Sleep(3 * time.Millisecond)
		return nil, nil
	}
	lg.verify = func(c int, body []byte) error {
		if len(asked) == 2 {
			return wrongf("no")
		}
		return nil
	}
	ss := lg.client(1, clk.Now(), 0, 10*time.Millisecond, 0)
	if len(ss) != 4 || ss[3].at != 9*time.Millisecond || ss[3].lat != 3*time.Millisecond || ss[3].late != 0 {
		t.Fatalf("samples %+v", ss)
	}
	if ss[0].wrong || !ss[1].wrong || ss[1].ok {
		t.Errorf("wrong answers not marked: %+v", ss[:2])
	}
	// A second window continues the sequence, here bounded by a request
	// count as a warm-up is.
	lg.client(1, clk.Now(), lg.next.Load(), time.Hour, 2)
	if !reflect.DeepEqual(asked, []int{0, 1, 2, 3, 4, 5}) {
		t.Errorf("indices asked %v", asked)
	}
}

func TestReferenceDividesTheSpeedOfTheBoxOut(t *testing.T) {
	// The same program on a box at half speed and at full speed: half the
	// answers at twice the latency and twice the CPU, and the same values.
	m := &measurement{load: 500 * time.Millisecond, elapsed: 3 * time.Second, segs: []segStat{
		{attempted: 100, correct: 100, p50ms: 2, cpu: 0.25, speed: 0.5},
		{attempted: 200, correct: 200, p50ms: 1, cpu: 0.25, speed: 1},
		{attempted: 200, correct: 200, p50ms: 1, cpu: 0.25, speed: 1},
	}}
	o := newOutcome()
	serving{sensitivity: 1}.report(o, &deployment{}, m, 3*time.Second)
	for name, want := range map[string][]float64{
		"qps": {400, 400, 400}, "p50_ms": {1, 1, 1}, "qps_per_core": {800, 800, 800},
		"client.raw_qps": {200, 400, 400}, "client.raw_p50_ms": {2, 1, 1}, "host.speed": {0.5, 1, 1},
	} {
		if !reflect.DeepEqual(o.segments[name], want) {
			t.Errorf("%s segments = %v, want %v", name, o.segments[name], want)
		}
	}
	// A workload half as sensitive: at a quarter of the speed it runs at half.
	m.segs[0] = segStat{attempted: 100, correct: 100, p50ms: 2, cpu: 0.25, speed: 0.25}
	serving{sensitivity: 0.5}.report(o, &deployment{}, m, 3*time.Second)
	if want := []float64{400, 400, 400}; !reflect.DeepEqual(o.segments["qps"], want) {
		t.Errorf("at sensitivity 0.5 qps segments = %v, want %v", o.segments["qps"], want)
	}
	// Without a reference, as in an open loop, the values are the raw ones.
	m.segs[0].speed, m.segs[1].speed, m.segs[2].speed = 0, 0, 0
	serving{}.report(o, &deployment{}, m, 3*time.Second)
	if !reflect.DeepEqual(o.segments["qps"], o.segments["client.raw_qps"]) || o.values["host.speed"] != 1 {
		t.Errorf("without a reference qps = %v, raw %v, speed %v", o.segments["qps"], o.segments["client.raw_qps"], o.values["host.speed"])
	}
}

func TestReferenceAnswersAndIsTimed(t *testing.T) {
	ts := httptest.NewServer(referenceHandler())
	defer ts.Close()
	r := &reference{d: &daemon{url: ts.URL}, c: newConn(ts.URL)}
	defer r.close()
	sp, err := r.speed(20 * time.Millisecond)
	if err != nil || sp <= 0 || r.n == 0 {
		t.Fatalf("speed = %v, %v after %d requests", sp, err, r.n)
	}
	if got := float64(r.n) / refNominalQPS / sp; got < 0.02 || got > 0.1 {
		t.Errorf("%d requests at speed %v took %v s, want about 0.02", r.n, sp, got)
	}
	resp, err := http.Get(ts.URL + "/ref?u=x&v=1")
	if err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Errorf("a request without a vertex: %v, %v", resp, err)
	}
}

func TestStatsDifferencing(t *testing.T) {
	before, err := parseStats([]byte(`{"qe.cache.hits":10,"qe.cache.misses":2,
		"g.blocks.qe.rows.built":5,"g.chains_s.qe.rows.built":7,"registry.graphs":2,
		"qe.queue.wait":{"count":3,"mean_us":12,"p50_us":16,"p99_us":64}}`))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseStats([]byte(`{"qe.cache.hits":110,"qe.cache.misses":3,
		"g.blocks.qe.rows.built":6,"g.chains_s.qe.rows.built":17,"registry.graphs":2,
		"qe.queue.wait":{"count":9,"mean_us":12,"p50_us":32,"p99_us":64}}`))
	if err != nil {
		t.Fatal(err)
	}
	d := statsDiff{before, after}
	if v, ok := d.delta("qe.cache.hits"); !ok || v != 100 {
		t.Errorf("hits delta = %v %v", v, ok)
	}
	// Per-graph scopes of registry mode sum under the plain name.
	if v, ok := d.delta("qe.rows.built"); !ok || v != 11 {
		t.Errorf("rows.built delta = %v %v", v, ok)
	}
	if v, ok := d.after.get("qe.queue.wait/p50_us"); !ok || v != 32 {
		t.Errorf("histogram field = %v %v", v, ok)
	}
	// A counter the daemon does not export is absent, not zero.
	if _, ok := d.delta("qe.shed"); ok {
		t.Errorf("absent counter reported present")
	}
	o := newOutcome()
	reportStats(o, d)
	if !o.absent["qe.shed"] || o.absent["qe.rows.built"] {
		t.Errorf("absent = %v", o.absent)
	}
	if got := o.values["qe.cache.hit_ratio"]; math.Abs(got-100.0/101) > 1e-12 {
		t.Errorf("hit ratio = %v", got)
	}
}

func TestProcParsing(t *testing.T) {
	// A command name with spaces and a parenthesis; utime 250, stime 50.
	stat := "4242 (ora) cled x) S 1 4242 4242 0 -1 4194560 900 0 0 0 250 50 0 0 20 0 7 0 123456 1000000 2000 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	if got, err := parseProcStat(stat); err != nil || got != 3 {
		t.Errorf("cpu = %v, %v; want 3 s", got, err)
	}
	if _, err := parseProcStat("garbage"); err == nil {
		t.Errorf("garbage parsed")
	}
	status := "Name:\toracled\nVmPeak:\t  900000 kB\nVmHWM:\t  262144 kB\nVmRSS:\t  100000 kB\n"
	if got, err := parseVmHWM(status); err != nil || got != 256 {
		t.Errorf("VmHWM = %v, %v; want 256 MiB", got, err)
	}
	if _, err := parseVmHWM("Name:\tx\n"); err == nil {
		t.Errorf("missing VmHWM parsed")
	}
	if got, err := parseSteal("cpu  100 0 50 1000 5 0 3 250 0 0\ncpu0 50 0 25 500 2 0 1 120 0 0\n"); err != nil || got != 2.5 {
		t.Errorf("steal = %v, %v; want 2.5 s", got, err)
	}
	if _, err := parseSteal("intr 1 2 3\n"); err == nil {
		t.Errorf("a line without a steal column parsed")
	}
	// The real files of this very process parse.
	if _, err := procCPU(os.Getpid()); err != nil {
		t.Error(err)
	}
	if mb, err := procPeakRSS(os.Getpid()); err != nil || mb <= 0 {
		t.Errorf("own VmHWM = %v, %v", mb, err)
	}
}

func TestAffinityMask(t *testing.T) {
	var m cpuMask
	m[0], m[1] = 0b1011, 0b100 // processors 0, 1, 3 and 66
	var want cpuMask
	want[1] = 0b100
	if got := m.last(); got != want {
		t.Errorf("last = %v, want only processor 66", got)
	}
	// Moving this process onto the processors it already has changes
	// nothing and must succeed.
	cur, err := affinity()
	if err != nil {
		t.Fatal(err)
	}
	if err := setAffinity(cur); err != nil {
		t.Error(err)
	}
	if again, _ := affinity(); again != cur {
		t.Errorf("affinity changed from %v to %v", cur, again)
	}
}

func TestSpanSelfTimeSubtraction(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a: 10..60 is covered once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past its parent: only 90..100 counts
		{ID: 5, Parent: 2, Name: "leaf", Start: 15, End: 20},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 50 - 10, 2: 30 - 5, 3: 30, 4: 30, 5: 5}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	tr := newTracer()
	root := tr.begin("root", 0, 1)
	kid := tr.begin("kid", root, 1)
	tr.end(kid)
	tr.end(root)
	by, selfBy := tr.since(0, false), tr.since(0, true)
	if len(by["root"]) != 1 || len(by["kid"]) != 1 || selfBy["root"][0] > by["root"][0] {
		t.Errorf("tracer grouping: %v %v", by, selfBy)
	}
	if got := tr.since(tr.mark(), false); len(got) != 0 {
		t.Errorf("spans after the mark: %v", got)
	}
}

func TestResultLineFollowsTheSpec(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	// BENCHMARK.json gates a subset of the program's workloads.
	known := map[string]bool{}
	for _, w := range workloads {
		known[w.name] = true
	}
	for _, w := range spec.Workloads {
		if !known[w.Name] {
			t.Errorf("BENCHMARK.json names workload %q, which the program does not have", w.Name)
		}
	}
	hasSetup := false
	for _, d := range spec.EndToEnd {
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
	}
	if !hasSetup {
		t.Errorf("no setup_s metric")
	}

	o := newOutcome()
	o.attempted = 10
	for _, d := range spec.EndToEnd {
		o.set(d.Name, 1.5)
	}
	res, err := o.result(spec.EndToEnd, false)
	if err != nil || !res.Correct || len(res.Metrics) != len(spec.EndToEnd) {
		t.Fatalf("end-to-end result: %+v, %v", res, err)
	}
	raw, _ := json.Marshal(res)
	var back map[string]json.RawMessage
	if json.Unmarshal(raw, &back) != nil || len(back) != 4 {
		t.Errorf("result line has keys %v", back)
	}
	// A missing end-to-end metric is an error; a per-layer metric that
	// does not apply reads 0; a failed self-check makes the run incorrect.
	delete(o.values, "qps")
	if _, err := o.result(spec.EndToEnd, false); err == nil {
		t.Errorf("missing end-to-end metric accepted")
	}
	o.fail("self-check")
	res, err = o.result(spec.PerLayer, true)
	if err != nil || res.Correct || len(res.Metrics) != len(spec.PerLayer) {
		t.Errorf("per-layer result: correct %v, %d metrics, %v", res.Correct, len(res.Metrics), err)
	}
}

// TestSmokeEveryWorkload runs every workload for one segment of 1.5 s
// against real daemons, end to end and traced, which proves that the
// harness boots all four boot modes and leaves no process behind.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real daemons")
	}
	for _, traced := range []bool{false, true} {
		if code := run("", 1, 1.5, traced); code != 0 {
			t.Fatalf("run(traced=%v) exited %d", traced, code)
		}
	}
}
