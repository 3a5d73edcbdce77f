package hetero

import (
	"container/heap"
	"fmt"
	"strings"
)

// Schedule is the outcome of running a unit set on the simulated platform.
type Schedule struct {
	// Makespan is the virtual completion time: the maximum slot clock.
	Makespan float64
	// BusyByDevice accumulates virtual busy seconds per device name;
	// UnitsByDevice counts work-units executed per device.
	BusyByDevice  map[string]float64
	UnitsByDevice map[string]int
	// TotalOps sums the measured cost over all units.
	TotalOps int64
}

type slot struct {
	dev   *Device
	clock float64
	index int // tie-break for determinism
	local int // index among its device's slots, for traces
}

type slotHeap []*slot

func (h slotHeap) Len() int { return len(h) }
func (h slotHeap) Less(i, j int) bool {
	if h[i].clock != h[j].clock {
		return h[i].clock < h[j].clock
	}
	return h[i].index < h[j].index
}
func (h slotHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *slotHeap) Push(x interface{}) { *h = append(*h, x.(*slot)) }
func (h *slotHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Run executes every unit exactly once under list scheduling on the given
// devices: the idlest slot repeatedly claims the next batch from its
// device's end of the deque until the queue drains. exec performs the real
// computation for a unit on a device and returns its measured cost; the
// virtual clock of the claiming slot advances by the batch cost.
//
// Execution is sequential in real time (the simulation orders the calls),
// so exec may share scratch state keyed by device.
func Run(units []Unit, devices []*Device, exec func(u Unit, d *Device) Cost) *Schedule {
	return run(units, devices, exec, nil)
}

// run is the one scheduler loop. onBatch, when non-nil, sees every batch
// as it is charged: the claiming slot before its clock advances, the
// batch's virtual duration and its unit count.
func run(units []Unit, devices []*Device, exec func(u Unit, d *Device) Cost, onBatch func(sl *slot, dt float64, units int)) *Schedule {
	d := NewDeque(units)
	s := &Schedule{
		BusyByDevice:  make(map[string]float64, len(devices)),
		UnitsByDevice: make(map[string]int, len(devices)),
	}
	var h slotHeap
	for _, dev := range devices {
		for i := 0; i < dev.Slots; i++ {
			h = append(h, &slot{dev: dev, index: len(h), local: i})
		}
	}
	heap.Init(&h)
	costs := make([]Cost, 0, 64)
	for d.Remaining() > 0 && len(h) > 0 {
		sl := heap.Pop(&h).(*slot)
		var batch []Unit
		if sl.dev.Big {
			batch = d.PopBig(sl.dev.BatchSize)
		} else {
			batch = d.PopSmall(sl.dev.BatchSize)
		}
		if len(batch) == 0 {
			continue // queue drained between check and pop
		}
		costs = costs[:0]
		for _, u := range batch {
			c := exec(u, sl.dev)
			costs = append(costs, c)
			s.TotalOps += c.Ops
		}
		dt := sl.dev.slotTime(costs)
		if onBatch != nil {
			onBatch(sl, dt, len(batch))
		}
		sl.clock += dt
		s.BusyByDevice[sl.dev.Name] += dt
		s.UnitsByDevice[sl.dev.Name] += len(batch)
		if sl.clock > s.Makespan {
			s.Makespan = sl.clock
		}
		heap.Push(&h, sl)
	}
	return s
}

// UniformMakespans returns the makespan Run gives r units of one cost, for
// every r from 1 to n, as out[r-1]. The units being identical, the
// schedule of r of them is the schedule of n cut off after its r-th unit:
// the same slots claim the same batches in the same order and only the
// last batch is short. So one run of n, with that one batch re-charged at
// each shorter length, makes the float additions each of the n runs would
// — the results are theirs to the last bit.
func UniformMakespans(n int, devices []*Device, cost Cost) []float64 {
	out := make([]float64, 0, n)
	var costs []Cost // as many copies of cost as the largest batch so far
	before := 0.0    // makespan of the batches already charged
	run(make([]Unit, n), devices, func(Unit, *Device) Cost { return cost }, func(sl *slot, dt float64, units int) {
		for len(costs) < units {
			costs = append(costs, cost)
		}
		for short := 1; short < units; short++ {
			out = append(out, max(before, sl.clock+sl.dev.slotTime(costs[:short])))
		}
		before = max(before, sl.clock+dt)
		out = append(out, before)
	})
	return out
}

func (s *Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "makespan %.4fs, %d ops", s.Makespan, s.TotalOps)
	for name, busy := range s.BusyByDevice {
		fmt.Fprintf(&b, "; %s: %.4fs busy, %d units", name, busy, s.UnitsByDevice[name])
	}
	return b.String()
}
