package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sample is one measured request. at is the instant its latency counts
// from, relative to the start of the measured window: the moment it was
// sent in a closed loop, the moment it was due in an open loop.
type sample struct {
	at    time.Duration
	lat   time.Duration // answer fully read − at
	late  time.Duration // open loop: sent − due
	slept bool          // open loop: the client was free, and slept, until the request was due
	bytes int
	ok    bool
	wrong bool // answered, but not with the reference's answer
}

// loadgen is the load generator: a few client goroutines, one connection
// each, which take the sequence's indices in order from one counter. With
// rate 0 it is a closed loop — a client sends its next request when the
// previous answer is in. With a rate it is an open loop: request i is due
// at i/rate whatever the daemon does, and one that is due while every
// client is busy waits — and the wait counts, because latency runs from
// the due time.
//
// The counter carries over from one run to the next, so a warm-up and the
// measurement after it walk one sequence.
type loadgen struct {
	rate float64
	// fetch sends request i over client c's connection; it is timed.
	// verify checks the answer client c just fetched, untimed.
	fetch  func(c, i int) ([]byte, error)
	verify func(c int, body []byte) error
	onErr  func(i int, err error)
	now    func() time.Time    // time.Now outside tests
	sleep  func(time.Duration) // preciseSleep outside tests
	next   atomic.Int64        // the next index of the sequence
}

// run generates load from the given number of clients for d — or, with
// limit > 0, until that many requests have been sent, whichever comes
// first — and returns every request that became due (open loop) or was
// sent (closed loop) in it.
func (l *loadgen) run(d time.Duration, limit, clients int) []sample {
	t0 := l.now()
	first := l.next.Load()
	var wg sync.WaitGroup
	out := make([][]sample, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out[c] = l.client(c, t0, first, d, limit)
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, s := range out {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].at < all[j].at })
	return all
}

func (l *loadgen) client(c int, t0 time.Time, first int64, d time.Duration, limit int) []sample {
	var out []sample
	for {
		i := l.next.Add(1) - 1
		at := l.now().Sub(t0)
		if l.rate > 0 {
			at = time.Duration(float64(i-first) / l.rate * float64(time.Second))
		}
		if at >= d || (limit > 0 && i-first >= int64(limit)) {
			l.next.Add(-1) // not sent: the next run starts with it
			return out
		}
		wait := at - l.now().Sub(t0)
		if wait > 0 {
			l.sleep(wait)
		}
		sent := l.now().Sub(t0)
		body, err := l.fetch(c, int(i))
		s := sample{at: at, lat: l.now().Sub(t0) - at, late: sent - at, slept: wait > 0, bytes: len(body)}
		if err == nil {
			err = l.verify(c, body)
			_, s.wrong = err.(*errWrong)
		}
		s.ok = err == nil
		if err != nil && l.onErr != nil {
			l.onErr(int(i), err)
		}
		out = append(out, s)
	}
}

// segStat is what one segment of the measured window saw.
type segStat struct {
	attempted, correct int
	p50ms              float64
	cpu                float64 // CPU seconds of the workload's daemons
	speed              float64 // of the box, by the reference; 0 without one
}

// segment cuts samples (sorted by at) into n equal segments of the window
// d by the instant each sample counts from.
func segment(samples []sample, n int, d time.Duration) []segStat {
	out := make([]segStat, n)
	lats := make([][]float64, n)
	for _, s := range samples {
		k := int(int64(s.at) * int64(n) / int64(d))
		if k < 0 || k >= n {
			continue
		}
		out[k].attempted++
		if s.ok {
			out[k].correct++
			lats[k] = append(lats[k], float64(s.lat)/1e6)
		}
	}
	for k := range out {
		sort.Float64s(lats[k])
		out[k].p50ms = percentile(lats[k], 0.50)
	}
	return out
}

// sortedOf extracts one number per sample that passes keep, sorted.
func sortedOf(samples []sample, keep func(sample) bool, val func(sample) float64) []float64 {
	var out []float64
	for _, s := range samples {
		if keep(s) {
			out = append(out, val(s))
		}
	}
	sort.Float64s(out)
	return out
}

// preciseSleep blocks the calling thread in nanosleep(2). time.Sleep wakes
// an otherwise idle process through the netpoller, whose timeout has
// millisecond resolution: the open loop then sent its requests a median
// 0.65 ms late, as much as a cached answer takes.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
