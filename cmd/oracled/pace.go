package main

import (
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"

	"repro/internal/obs"
)

// paceFloor is the headroom every cycle gets beyond the scannable bytes.
// Measured on blocks (33.2 MB live, 3.1 MB scannable; 2-vCPU VM, three
// alternated 32 s pairs each): point_hot rss_mb 73.6–74.2 → 49.8–49.9 MiB
// at 12 MiB, 46.3–46.4 at 8, qps unmoved at both; a 16 s point_cold run
// collected 11 times with no limit, 41 times at 12 MiB and 72 times at 8.
const paceFloor = 12 << 20

// paceMin is the least headroom beyond the scannable bytes that pulling
// the limit under twice the live heap may leave (memLimit). A cluster
// frontend (2.8 MB live, 0.5 MB scannable) whose limit was live + scan +
// 6 MiB collected 6 480 times in 3 000 queries: the runtime's non-heap
// memory, which the limit also bounds, outweighs so small a heap.
const paceMin = 6 << 20

// startPacer paces the collector on the scannable heap: after every cycle
// it sets the memory limit (all the memory the runtime maps) to live +
// scan + paceFloor, or just under twice the live heap (memLimit). The
// live heap is mostly pointer-free distance tables, marked as single
// objects, so GOGC=100's headroom over them buys only RSS; headroom on
// the scannable bytes follows a cycle's mark work. GOGC stays, so the
// limit only lowers the goal. It starts just before serve, not during
// boot (DESIGN §9). With GOGC or GOMEMLIMIT set it does nothing, reports false.
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
		{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(m)
	live := m[0].Value.Uint64()
	scan := m[1].Value.Uint64() + m[2].Value.Uint64() + m[3].Value.Uint64()
	limit := memLimit(live, scan)
	debug.SetMemoryLimit(limit)
	s.reg.Gauge("gc.live_bytes").Set(int64(live))
	s.reg.Gauge("gc.scan_bytes").Set(int64(scan))
	s.reg.Gauge("gc.limit_bytes").Set(limit)
	s.reg.Gauge("gc.cycles").Set(int64(m[4].Value.Uint64()))
	s.reg.Gauge("gc.cpu_ms").Set(int64(m[5].Value.Float64() * 1000))
	runtime.SetFinalizer(s, (*gcSentinel).fire)
}

// memLimit is live + scan + paceFloor, saturated at math.MaxInt64: the
// runtime's "no limit". Where that reaches twice the live heap, the goal
// GOGC=100 already sets, a limit would bound nothing the runtime does not,
// so it is pulled to 31/32 of it instead, if that still leaves paceMin
// over live + scan. A heap of small tables (blocks since its distances
// are one or two bytes: 11.4 MB live, 3.1 MB scannable) takes that limit.
func memLimit(live, scan uint64) int64 {
	sum := live + scan
	if sum < live || sum > math.MaxInt64-paceFloor {
		return math.MaxInt64
	}
	limit := sum + paceFloor
	if under := 2*live - live/16; under < limit && under >= sum+paceMin {
		limit = under
	}
	return int64(limit)
}
