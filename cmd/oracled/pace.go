package main

import (
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"

	"repro/internal/obs"
)

// paceHeadroom is the headroom every cycle gets beyond the live heap, the
// scannable bytes and the runtime's non-heap memory (memLimit). Measured
// on blocks (7.5 MB live, 0.7 MB scannable, 5.2 MB non-heap; DESIGN §9).
const paceHeadroom = 4 << 20

// startPacer paces the collector on the scannable heap: after every cycle
// it sets the memory limit (all the memory the runtime maps) to live +
// scan + non-heap + paceHeadroom (memLimit). The live heap is mostly
// pointer-free distance tables, marked as single objects, so GOGC=100's
// headroom over them buys only RSS; headroom on the scannable bytes
// follows a cycle's mark work. The limit bounds the runtime's non-heap
// memory (stacks, metadata, buffers) too, so it is counted in. GOGC
// stays, so the limit only lowers the goal. It starts just before serve,
// not during boot (DESIGN §9). With GOGC or GOMEMLIMIT set it does
// nothing, reports false.
func startPacer(reg *obs.Registry, getenv func(string) string) bool {
	if getenv("GOGC") != "" || getenv("GOMEMLIMIT") != "" {
		return false
	}
	runtime.SetFinalizer(&gcSentinel{reg}, (*gcSentinel).fire)
	return true
}

// gcSentinel exists for its finalizer, which runs after each cycle that
// finds it unreachable and re-arms itself. It holds a pointer, so the tiny
// allocator (which ties lifetimes to neighbours') never places it.
type gcSentinel struct{ reg *obs.Registry }

func (s *gcSentinel) fire() {
	m := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/scan/heap:bytes"},
		{Name: "/gc/scan/stack:bytes"}, {Name: "/gc/scan/globals:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/free:bytes"},
		{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/memory/classes/heap/released:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"}}
	metrics.Read(m)
	v := func(i int) uint64 { return m[i].Value.Uint64() }
	live, scan := v(0), v(1)+v(2)+v(3)
	nonheap := v(6) - v(7) - v(8) - v(9) - v(10) // the classes partition the total
	limit := memLimit(live, scan, nonheap)
	debug.SetMemoryLimit(limit)
	s.reg.Gauge("gc.live_bytes").Set(int64(live))
	s.reg.Gauge("gc.scan_bytes").Set(int64(scan))
	s.reg.Gauge("gc.nonheap_bytes").Set(int64(nonheap))
	s.reg.Gauge("gc.limit_bytes").Set(limit)
	s.reg.Gauge("gc.cycles").Set(int64(v(4)))
	s.reg.Gauge("gc.cpu_ms").Set(int64(m[5].Value.Float64() * 1000))
	runtime.SetFinalizer(s, (*gcSentinel).fire)
}

// memLimit is live + scan + nonheap + paceHeadroom, saturated at
// math.MaxInt64: the runtime's "no limit".
func memLimit(live, scan, nonheap uint64) int64 {
	limit := uint64(paceHeadroom)
	for _, b := range []uint64{live, scan, nonheap} {
		if limit += b; limit < b || limit > math.MaxInt64 {
			return math.MaxInt64
		}
	}
	return int64(limit)
}
