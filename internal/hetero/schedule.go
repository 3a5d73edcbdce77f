// Package hetero is the paper's simulated platform and nothing else: the
// dynamic work-queue that balances work-units between a CPU and a GPU
// (Indarapu et al. [19], used in Sections 2.3 and 3.4) and — because this
// reproduction has no CUDA device — a calibrated virtual-time device model
// that accounts how long each work-unit would take on the paper's platform.
// The real worker pool is internal/par; the packages that price their work
// on this model reach it from one file each (exp/bc.go, mcb/price.go).
//
// The device model is the substitution documented in DESIGN.md: kernels are
// real Go code with the same algorithmic structure as the CUDA kernels
// (frontier relaxation, block-parallel reductions); only the clock is
// simulated. Work measures (edge relaxations, words XORed, sweeps) are
// counted during real execution and divided by device throughputs
// calibrated once against the paper's reported platform ratios.
package hetero

// Unit is one schedulable work-unit: an opaque index the caller interprets
// (a source vertex, a biconnected component, a witness range) plus a size
// estimate used for sorting.
type Unit struct {
	ID   int32
	Size int64
}

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
	local int // index among its device's slots, for traces
}

// Run executes every unit exactly once under list scheduling on the given
// devices: the idlest slot repeatedly claims the next batch from its
// device's end of the work queue until the queue drains. exec performs the
// real computation for a unit on a device and returns its measured cost;
// the virtual clock of the claiming slot advances by the batch cost.
//
// Execution is sequential in real time (the simulation orders the calls),
// so exec may share scratch state keyed by device.
func Run(units []Unit, devices []*Device, exec func(u Unit, d *Device) Cost) *Schedule {
	return run(units, devices, exec, nil)
}

// run is the one scheduler loop. Its work queue is the double-ended queue
// of [19]: the units sorted ascending by size, a non-Big slot claiming its
// batch from the small end (head) and a Big one from the big end (tail),
// "so that the GPU starts accessing the bigger workunits" (Section 2.3).
// The claiming slot is the one with the lowest clock, ties going to the
// lowest index in device order. onBatch, when non-nil, sees every batch as
// it is charged: the claiming slot before its clock advances, the batch's
// virtual duration and its unit count.
func run(units []Unit, devices []*Device, exec func(u Unit, d *Device) Cost, onBatch func(sl *slot, dt float64, units int)) *Schedule {
	queue := make([]Unit, len(units))
	copy(queue, units)
	sortUnitsBySize(queue)
	head, tail := 0, len(queue)
	s := &Schedule{
		BusyByDevice:  make(map[string]float64, len(devices)),
		UnitsByDevice: make(map[string]int, len(devices)),
	}
	var slots []slot
	for _, dev := range devices {
		for i := 0; i < dev.Slots; i++ {
			slots = append(slots, slot{dev: dev, local: i})
		}
	}
	costs := make([]Cost, 0, 64)
	for head < tail && len(slots) > 0 {
		sl := &slots[0]
		for i := 1; i < len(slots); i++ {
			if slots[i].clock < sl.clock {
				sl = &slots[i]
			}
		}
		k := min(max(sl.dev.BatchSize, 1), tail-head)
		var batch []Unit
		if sl.dev.Big {
			tail -= k
			batch = queue[tail : tail+k]
		} else {
			batch = queue[head : head+k]
			head += k
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
	}
	return s
}

// sortUnitsBySize sorts u ascending by size, stably, with a bottom-up merge
// sort. On 2 000 mixed-size units it took 86–98 µs against 286–298 µs for
// slices.SortStableFunc (2 vCPUs): a gap the size of a whole
// BenchmarkAblationDequeBatch run (145–190 µs).
func sortUnitsBySize(u []Unit) {
	n := len(u)
	buf := make([]Unit, n)
	for width := 1; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid := lo + width
			hi := lo + 2*width
			if mid > n {
				mid = n
			}
			if hi > n {
				hi = n
			}
			i, j, k := lo, mid, lo
			for i < mid && j < hi {
				if u[i].Size <= u[j].Size {
					buf[k] = u[i]
					i++
				} else {
					buf[k] = u[j]
					j++
				}
				k++
			}
			for i < mid {
				buf[k] = u[i]
				i++
				k++
			}
			for j < hi {
				buf[k] = u[j]
				j++
				k++
			}
		}
		copy(u, buf)
	}
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
