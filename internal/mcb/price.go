package mcb

import "repro/internal/hetero"

// This file is the package's only contact with the device model: a solve
// records a work log (depina.go), and Price replays the paper's charges
// over it on a platform's simulated devices afterwards. Nothing in the
// phase loop runs a scheduler.

// Devices returns the simulated device set for the platform.
func (p Platform) Devices() []*hetero.Device {
	switch p {
	case Sequential:
		return []*hetero.Device{hetero.SequentialCPU()}
	case Multicore:
		return []*hetero.Device{hetero.MulticoreCPU()}
	case GPU:
		return []*hetero.Device{hetero.TeslaK40c()}
	case Heterogeneous:
		return []*hetero.Device{hetero.MulticoreCPU(), hetero.TeslaK40c()}
	}
	return nil
}

// work is what one component's solve leaves behind for pricing. A tree's
// label cost is len(Order) in every phase, so per-root sizes and one
// search count per phase are the whole log; f is len(search).
type work struct {
	n        int     // vertices of the working graph
	signed   bool    // De Pina's signed search: no trees, labels or launches
	treeOps  int64   // Dijkstra relaxations over all roots
	depths   []int   // per root: sweeps a GPU tree kernel needs
	treeSize []int64 // per root: vertices labelled per phase
	search   []int64 // per phase: candidates scanned, or signed-search ops
}

// gpuScanBatch is the grid of candidates one GPU scan kernel evaluates per
// launch; CPU-only platforms have no launch overhead.
const gpuScanBatch = 1 << 16

// Price returns the virtual-clock seconds the solve behind r would take on
// platform p, per phase; the platform's runtime is the breakdown's Total.
// It reads only the work log, so one solve can be priced on every platform
// and pricing twice gives the same bits. Each accumulator is summed in the
// order the phase loop ran — phases within a component, then components —
// which fixes every float to the last bit (DESIGN.md §7).
func (r *Result) Price(p Platform) PhaseBreakdown {
	devs := p.Devices()
	var total PhaseBreakdown
	for i := range r.work {
		total.add(r.work[i].price(devs))
	}
	return total
}

func (w *work) price(devs []*hetero.Device) PhaseBreakdown {
	var b PhaseBreakdown
	// All devices check a scan batch together (Section 3.3.2), so the
	// search is charged at the platform's aggregate throughput plus, per
	// batch, the largest launch overhead among them.
	var agg, launch float64
	for _, d := range devs {
		agg += d.OpsPerSec * float64(d.Slots)
		launch = max(launch, d.LaunchOverhead)
	}
	if w.signed {
		for _, ops := range w.search {
			b.Search += float64(ops) / agg
		}
	} else {
		// Trees are built once, one unit per root; a GPU unit pays one
		// launch per frontier sweep (tree level).
		units := make([]hetero.Unit, len(w.depths))
		for i := range units {
			units[i] = hetero.Unit{ID: int32(i), Size: int64(w.n)}
		}
		perRoot := w.treeOps / int64(max(1, len(units)))
		b.Tree = hetero.Run(units, devs, func(u hetero.Unit, d *hetero.Device) hetero.Cost {
			if d.Big {
				return hetero.Cost{Ops: perRoot, Launches: w.depths[u.ID]}
			}
			return hetero.Cost{Ops: perRoot, Launches: 1}
		}).Makespan
		// Labels: one tree per unit, the same units at the same cost in
		// every phase, so one schedule prices them all. On the GPU each
		// thread walks one tree, so a batch of trees is a single launch.
		for i := range units {
			units[i].Size = w.treeSize[i]
		}
		label := hetero.Run(units, devs, func(u hetero.Unit, _ *hetero.Device) hetero.Cost {
			return hetero.Cost{Ops: w.treeSize[u.ID], Launches: 1}
		}).Makespan
		for _, scanned := range w.search {
			b.Label += label
			t := float64(scanned) / agg
			if launch > 0 {
				t += float64((scanned+gpuScanBatch-1)/gpuScanBatch) * launch
			}
			b.Search += t
		}
	}
	// Witness update after phase i: one unit per remaining witness; a GPU
	// unit is a block-parallel multiply-reduce + conditional XOR in a
	// shared launch, and the word scans stream at bandwidth rates. The
	// units are identical, so one schedule of the f−1 after the first
	// phase holds the schedule of every later, shorter phase.
	words := int64(len(w.search)+63) / 64
	update := hetero.UniformMakespans(len(w.search)-1, devs, hetero.Cost{Ops: words, Launches: 1, Stream: true})
	for rest := len(update); rest > 0; rest-- {
		b.Update += update[rest-1]
	}
	return b
}
