package hetero

// Device describes one execution resource of the simulated platform. The
// virtual clock charges a work-unit of measured cost c executed in one of
// the device's slots as c/OpsPerSec seconds plus LaunchOverhead per batch.
//
// A CPU is modelled as one slot per effective core; a discrete GPU is
// modelled as a single slot whose throughput is the whole device's
// effective rate on irregular graph kernels (one kernel grid at a time,
// as on the paper's K40c) plus a per-launch overhead that penalises
// high-diameter frontier algorithms, exactly the effect real GPU SSSP
// exhibits.
type Device struct {
	Name            string
	Slots           int
	OpsPerSec       float64 // random-access operations per second per slot
	StreamOpsPerSec float64 // sequential (bandwidth-bound) operations per second per slot
	LaunchOverhead  float64 // seconds charged per batch (kernel launch)
	BatchSize       int     // units claimed from the work queue per batch
	Big             bool    // claims from the queue's big end
}

// Cost is the measured cost of executing one work-unit: Ops primitive
// operations (edge relaxations, words XORed, labels written) over Launches
// kernel launches (frontier sweeps; 1 for monolithic kernels). Stream marks
// units whose memory access is sequential (witness word scans), charged at
// the device's streaming rate instead of its random-access rate.
type Cost struct {
	Ops      int64
	Launches int
	Stream   bool
}

// Calibrated platform presets. The throughput ratios are calibrated to the
// paper's experimental platform (Section 2.4.1) using the paper's own
// measured cross-device speedups: a 20-core E5-2650 achieves ~3.1x a single
// core on these memory-bound kernels, and a K40c ~9x (Figure 5). The w/ vs
// w/o-ear-decomposition comparisons never depend on these constants — they
// come from measured operation counts.
const seqOpsPerSec = 100e6

const seqStreamOpsPerSec = 1e9 // one core streaming words at ~8 GB/s

// SequentialCPU models one core of the E5-2650.
func SequentialCPU() *Device {
	return &Device{Name: "cpu-seq", Slots: 1, OpsPerSec: seqOpsPerSec, StreamOpsPerSec: seqStreamOpsPerSec, BatchSize: 1}
}

// MulticoreCPU models the full 20-core E5-2650 under its 68 GB/s memory
// bandwidth ceiling: 20 slots whose aggregate is ~3.2x one core on both
// random and streaming access (bandwidth-bound either way).
func MulticoreCPU() *Device {
	return &Device{Name: "cpu-mc", Slots: 20, OpsPerSec: seqOpsPerSec * 0.16, StreamOpsPerSec: seqStreamOpsPerSec * 0.16, BatchSize: 4}
}

// TeslaK40c models the GPU: one grid at a time, ~9x a single CPU core on
// irregular kernels, 10µs launch overhead per kernel. The batch size is
// large because a GPU kernel covers a whole grid of work-units at once
// (one thread per tree, one block per witness); popping big batches from
// the queue's large end is also what the paper's work-queue policy does.
func TeslaK40c() *Device {
	return &Device{Name: "gpu-k40c", Slots: 1, OpsPerSec: seqOpsPerSec * 9, StreamOpsPerSec: seqStreamOpsPerSec * 8, LaunchOverhead: 10e-6, BatchSize: 256, Big: true}
}

// slotTime charges a batch of unit costs to one slot and returns the
// elapsed virtual seconds. A batch costs one kernel launch (units in a
// batch share a grid, one thread block per unit, as in the paper's
// one-thread-per-tree and one-block-per-witness kernels); units that
// internally need multiple level-synchronous sweeps (frontier SSSP) charge
// their extra launches on top.
func (d *Device) slotTime(costs []Cost) float64 {
	var t float64
	extraLaunches := 0
	for _, c := range costs {
		rate := d.OpsPerSec
		if c.Stream && d.StreamOpsPerSec > 0 {
			rate = d.StreamOpsPerSec
		}
		t += float64(c.Ops) / rate
		if c.Launches > 1 {
			extraLaunches += c.Launches - 1
		}
	}
	if len(costs) > 0 {
		extraLaunches++
	}
	t += d.LaunchOverhead * float64(extraLaunches)
	return t
}
