package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// runConfig is what the command line fixes for one workload run.
type runConfig struct {
	seed    uint64
	seconds float64
	traced  bool
}

// deployment is one booted set of daemons with the references of the
// graphs they serve.
type deployment struct {
	dir      string
	daemons  []*daemon // every process of the workload: CPU and RSS sum over them
	front    *daemon   // the one that receives the requests
	tenants  []*tenant
	fixtures []*built
	cluster  *cluster      // cluster_point only
	scripts  []deltaScript // mixed_rw: what the writer applied, in order
	firstMS  []float64
}

// firstAnswers sends one verified request per tenant, so that set-up ends
// at the first correct answer: lazy work a daemon defers to its first
// request — registry hydration — is set-up time, not latency.
func (d *deployment) firstAnswers() error {
	c := newConn(d.front.url)
	defer c.close()
	for _, tn := range d.tenants {
		rq := request{kind: kindDistance, u: 0, v: int32(tn.g.NumVertices() - 1)}
		t0 := time.Now()
		body, err := c.do(context.Background(), tn, rq, nil, 0)
		if err == nil {
			err = tn.check(rq, body)
		}
		if err != nil {
			return fmt.Errorf("first request to %s: %w", tn.prefix, err)
		}
		d.firstMS = append(d.firstMS, time.Since(t0).Seconds()*1e3)
	}
	return nil
}

// serving describes one of the five workloads that load live daemons.
type serving struct {
	name string
	rate float64 // open-loop requests per second; 0 is a closed loop
	// clients is how many connections carry the measured load; 0 means one.
	clients int
	// sensitivity is how much of a slowdown of the box, as the reference
	// sees it, shows in this workload: at a speed of s the workload runs
	// at s to the power of sensitivity. 1 for a workload that spends its
	// time where the reference does, in the kernel and net/http.
	sensitivity float64
	// spread leaves the generator and the daemons on every processor of
	// the box, where every other serving workload lives on one.
	spread bool
	// rowsPerRequest, when set, is how many source rows one request asks
	// for; client.rows_per_s is then reported.
	rowsPerRequest int
	// warmRequests, when set, is how many requests the warm-up sends, over
	// fillClients connections, in place of running for warmUp: a cold
	// workload is only stationary once the row cache is full and every
	// miss evicts a row.
	warmRequests int
	deploy       func(h *harness) (*deployment, error)
	seq          func(seed uint64, d *deployment) sequence
	// writer, when set, runs beside the measured load and returns once
	// ctx is done.
	writer func(ctx context.Context, d *deployment, o *outcome)
	// check holds the workload's self-checks: a run that measured
	// something other than what the workload is for must fail.
	check func(d *deployment, o *outcome, diff statsDiff)
	// layers measures, in the traced pass, the layers this workload
	// stresses by calling their public functions in-process.
	layers func(h *harness, cfg runConfig, d *deployment, o *outcome, tr *tracer) error
}

const (
	setupReps = 3 // set-ups per run; setup_s is their median
	// segmentLen is the length of one segment of the measured window; a
	// metric is the median of its per-segment values.
	segmentLen = time.Second
	warmUp     = time.Second
	sloLimit   = 10 * time.Millisecond
	// fillClients connections fill the row cache of a cold workload before
	// it is measured: as many as the box has processors, so that the fill
	// takes half as long as the measuring client alone would need.
	fillClients = 2
)

// segmentsIn is how many segments a measured window holds.
func segmentsIn(window time.Duration) int {
	return max(1, int((window+segmentLen/2)/segmentLen))
}

func (s serving) run(h *harness, cfg runConfig) (*outcome, error) {
	o := newOutcome()
	h.spread = s.spread
	reps := setupReps
	if cfg.traced {
		reps = 1
	}
	var d *deployment
	var setups []float64
	for r := 0; r < reps; r++ {
		if d != nil {
			h.stopAll()
			os.RemoveAll(d.dir)
		}
		t0 := time.Now()
		var err error
		if d, err = s.deploy(h); err != nil {
			return nil, err
		}
		if err := d.firstAnswers(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	o.setSegments("setup_s", setups)

	// A closed loop is measured against the reference, which lives where
	// the daemons live. It starts after the last set-up: it is no part of
	// what an operator boots.
	var ref *reference
	if s.rate == 0 {
		var err error
		if ref, err = h.startReference(); err != nil {
			return nil, err
		}
		defer ref.close()
	}

	seq := s.seq(cfg.seed, d)
	clients := max(s.clients, 1)
	conns := make([]*conn, max(clients, fillClients))
	for c := range conns {
		conns[c] = newConn(d.front.url)
		defer conns[c].close()
	}
	var tr *tracer // set for the traced segment only
	var reqID, shown atomic.Int64
	cur := make([]request, len(conns)) // the request each client has in flight
	lg := &loadgen{rate: s.rate, now: time.Now, sleep: preciseSleep}
	lg.fetch = func(c, i int) ([]byte, error) {
		cur[c] = seq(i)
		return conns[c].do(context.Background(), d.tenants[cur[c].tenant], cur[c], tr, int(reqID.Add(1)))
	}
	lg.verify = func(c int, body []byte) error {
		return d.tenants[cur[c].tenant].check(cur[c], body)
	}
	lg.onErr = func(i int, err error) {
		if shown.Add(1) <= 3 {
			o.note("request %d failed: %v", i, err)
		}
	}

	if s.warmRequests > 0 {
		lg.run(time.Minute, s.warmRequests, fillClients)
	} else {
		lg.run(warmUp, 0, clients)
	}
	before, err := d.front.scrape(context.Background())
	if err != nil {
		return nil, err
	}
	window := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.traced {
		// One untraced and one traced segment of the usual length.
		window = min(window, segmentLen)
	}
	nseg := segmentsIn(window)

	ctx, cancel := context.WithCancel(context.Background())
	var bg sync.WaitGroup
	if s.writer != nil {
		bg.Add(1)
		go func() { defer bg.Done(); s.writer(ctx, d, o) }()
	}
	m, err := s.measure(lg, d, ref, nseg, window, clients)
	var tracedSamples []sample
	if err == nil && cfg.traced {
		tr = newTracer()
		tracedSamples = lg.run(m.load, 0, clients)
	}
	cancel()
	bg.Wait()
	if err != nil {
		return nil, err
	}
	samples := m.samples
	after, err := d.front.scrape(context.Background())
	if err != nil {
		return nil, err
	}
	diff := statsDiff{before, after}

	s.report(o, d, m, window)
	reportStats(o, diff)
	o.attempted, o.failed = len(samples)+len(tracedSamples), 0
	for _, sm := range append(samples, tracedSamples...) {
		if !sm.ok {
			o.failed++
		}
	}
	if s.check != nil {
		s.check(d, o, diff)
	}
	if cfg.traced {
		if err := s.traceReport(h, cfg, d, o, tr, samples, tracedSamples); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// measurement is one measured window: every sample, and per segment what
// the load, the daemons' CPU and the reference saw.
type measurement struct {
	samples         []sample
	segs            []segStat
	load            time.Duration // the part of one segment that carries the workload's load
	selfCPU, stolen float64       // this process's CPU seconds and the host's steal over the window
	elapsed         time.Duration
}

// measure runs the measured window. An open loop runs through it without a
// break and is cut into segments afterwards. A closed loop runs segment by
// segment: the workload's load, then a slice against the reference.
func (s serving) measure(lg *loadgen, d *deployment, ref *reference, nseg int, window time.Duration, clients int) (*measurement, error) {
	m := &measurement{load: window / time.Duration(nseg)}
	self0, steal0, t0 := selfCPU(), hostSteal(), time.Now()
	if ref == nil {
		cpu := startCPUSampler(d.daemons, nseg, window)
		m.samples = lg.run(window, 0, clients)
		cpu.wait()
		m.segs = segment(m.samples, nseg, window)
		for k := range m.segs {
			m.segs[k].cpu = cpu.daemon[k+1] - cpu.daemon[k]
		}
	} else {
		// The reference takes its slice of every segment, and at most half.
		m.load = max(m.load-refSlice, m.load/2)
		for k := 0; k < nseg; k++ {
			c0 := cpuOf(d.daemons)
			ss := lg.run(m.load, 0, clients)
			sg := segment(ss, 1, m.load)[0]
			sg.cpu = cpuOf(d.daemons) - c0
			var err error
			if sg.speed, err = ref.speed(refSlice); err != nil {
				return nil, err
			}
			m.segs = append(m.segs, sg)
			m.samples = append(m.samples, ss...)
		}
	}
	m.selfCPU, m.stolen, m.elapsed = selfCPU()-self0, hostSteal()-steal0, time.Since(t0)
	return m, nil
}

// report turns the measured window into the end-to-end metrics and the
// client.* and oracled.* figures that fall out of the same samples.
func (s serving) report(o *outcome, d *deployment, m *measurement, window time.Duration) {
	samples, nseg := m.samples, len(m.segs)
	qps, p50, perCore := make([]float64, nseg), make([]float64, nseg), make([]float64, nseg)
	rawQPS, rawP50, speed := make([]float64, nseg), make([]float64, nseg), make([]float64, nseg)
	var daemonCPU float64
	for k, sg := range m.segs {
		rawQPS[k] = float64(sg.correct) / m.load.Seconds()
		rawP50[k] = sg.p50ms
		// Without a reference the box counts as running at its nominal speed.
		speed[k] = 1
		if sg.speed > 0 {
			speed[k] = sg.speed
		}
		slowed := math.Pow(speed[k], s.sensitivity)
		qps[k] = rawQPS[k] / slowed
		p50[k] = rawP50[k] * slowed
		if sg.cpu > 0 {
			perCore[k] = float64(sg.correct) / sg.cpu / slowed
		}
		daemonCPU += sg.cpu
	}
	o.setSegments("qps", qps)
	o.setSegments("p50_ms", p50)
	o.setSegments("qps_per_core", perCore)
	o.setSegments("client.raw_qps", rawQPS)
	o.setSegments("client.raw_p50_ms", rawP50)
	o.setSegments("host.speed", speed)
	o.set("host.steal_share", m.stolen/(m.elapsed.Seconds()*float64(runtime.NumCPU())))
	var rss float64
	for _, dm := range d.daemons {
		if m, err := procPeakRSS(dm.pid); err == nil {
			rss += m
		}
	}
	o.set("rss_mb", rss)

	okLat := sortedOf(samples, func(sm sample) bool { return sm.ok }, func(sm sample) float64 { return float64(sm.lat) / 1e6 })
	o.set("client.p95_ms", percentile(okLat, 0.95))
	o.set("client.p99_ms", percentile(okLat, 0.99))
	o.set("client.p999_ms", percentile(okLat, 0.999))
	o.set("client.requests", float64(len(samples)))
	var wrong, failed, inSLO int
	for _, sm := range samples {
		if sm.wrong {
			wrong++
		}
		if !sm.ok {
			failed++
		} else if sm.lat <= sloLimit {
			inSLO++
		}
	}
	o.set("client.wrong", float64(wrong))
	if len(samples) > 0 {
		o.set("client.fail_ratio", float64(failed)/float64(len(samples)))
		o.set("client.slo_ok_ratio", float64(inSLO)/float64(len(samples)))
	}
	if s.rate > 0 {
		// How late the generator itself runs: over the requests a free
		// client slept for. One that was due while every client was busy
		// is late because of the daemon, and its latency says so.
		late := sortedOf(samples, func(sm sample) bool { return sm.slept }, func(sm sample) float64 { return float64(sm.late) / 1e3 })
		o.set("client.late_p50_us", percentile(late, 0.5))
	}
	o.set("client.cpu_share", m.selfCPU/(m.elapsed.Seconds()*float64(workers())))
	if s.rowsPerRequest > 0 {
		o.set("client.rows_per_s", o.values["qps"]*float64(s.rowsPerRequest))
	}

	sizes := sortedOf(samples, func(sm sample) bool { return sm.ok }, func(sm sample) float64 { return float64(sm.bytes) })
	o.set("oracled.resp_bytes_p50", percentile(sizes, 0.5))
	if n := len(okLat); n > 0 {
		o.set("oracled.cpu_us_per_req", daemonCPU/float64(n)*1e6)
	}
	var boot float64
	for _, dm := range d.daemons {
		boot = max(boot, dm.bootReady.Seconds())
	}
	o.set("oracled.boot_ready_s", boot)
	if share := daemonCPU / (window.Seconds() * float64(workers())); s.rate > 0 {
		o.note("daemon CPU is %.0f %% of the machine at %g req/s", share*100, s.rate)
	}
}

// reportStats records the counters the daemon exports at /v1/stats as
// the change over the measured window. A counter the daemon does not
// export is reported as null, so that a later change which removes a
// cache does not break the benchmark.
func reportStats(o *outcome, diff statsDiff) {
	hits, ok1 := diff.delta("qe.cache.hits")
	misses, ok2 := diff.delta("qe.cache.misses")
	if ok1 && ok2 {
		if hits+misses > 0 {
			o.set("qe.cache.hit_ratio", hits/(hits+misses))
		}
	} else {
		o.absent["qe.cache.hit_ratio"] = true
	}
	for _, name := range []string{"qe.cache.evictions", "qe.rows.built", "qe.rows.coalesced", "qe.shed",
		"qe.queue.expired", "hetero.hybrid.runs", "registry.hydrations", "registry.evictions",
		"shard.rpc.retries", "shard.rpc.hedges", "shard.rpc.errors", "jobs.completed", "jobs.overload_backoffs"} {
		if v, ok := diff.delta(name); ok {
			o.set(name, v)
		} else {
			o.absent[name] = true
		}
	}
	if v, ok := diff.after.get("qe.queue.wait/p50_us"); ok {
		o.set("qe.queue.wait_p50_us", v)
	} else {
		o.absent["qe.queue.wait_p50_us"] = true
	}
	big, ok1 := diff.delta("hetero.hybrid.units.big")
	cpu, ok2 := diff.delta("hetero.hybrid.units.cpu")
	if ok1 && ok2 && big+cpu > 0 {
		o.set("hetero.hybrid.big_share", big/(big+cpu))
	}
	rpcs, ok1 := diff.delta("shard.rpc.requests")
	fetched, ok2 := diff.delta("shard.rows.fetched")
	stitched, ok3 := diff.delta("shard.rows.stitched")
	if ok1 && ok2 && ok3 && stitched > 0 {
		o.set("shard.rpc_per_row", rpcs/stitched)
		o.set("shard.block_rows_per_row", fetched/stitched)
	}
	// The per-shard RPC histograms are "shard.<id>.rpc"; report the slower
	// shard's exported median, since a row waits for the slower of the two.
	var p50 float64
	for sid := 0; sid < numShards; sid++ {
		if v, ok := diff.after.get(fmt.Sprintf("shard.%d.rpc/p50_us", sid)); ok {
			p50 = max(p50, v)
		}
	}
	o.set("shard.rpc_p50_us", p50)
}

// cpuSampler reads the daemons' CPU seconds at every segment boundary of
// an open loop's measured window.
type cpuSampler struct {
	daemon []float64
	done   chan struct{}
}

func startCPUSampler(ds []*daemon, nseg int, window time.Duration) *cpuSampler {
	c := &cpuSampler{done: make(chan struct{})}
	t0 := time.Now()
	go func() {
		defer close(c.done)
		for k := 0; k <= nseg; k++ {
			time.Sleep(time.Until(t0.Add(window * time.Duration(k) / time.Duration(nseg))))
			c.daemon = append(c.daemon, cpuOf(ds))
		}
	}()
	return c
}

func (c *cpuSampler) wait() { <-c.done }

// selfCPU is the CPU seconds this process has used.
func selfCPU() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
