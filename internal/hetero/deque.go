// Package hetero is the paper's simulated platform and nothing else: the
// dynamic work-queue that balances work-units between a CPU and a GPU
// (Indarapu et al. [19], used in Sections 2.3 and 3.4) and — because this
// reproduction has no CUDA device — a calibrated virtual-time device model
// that accounts how long each work-unit would take on the paper's platform.
// The real worker pool is internal/par; the packages that price their work
// on this model reach it from one file each (apsp/sim.go, bc/sim.go,
// mcb/price.go).
//
// The device model is the substitution documented in DESIGN.md: kernels are
// real Go code with the same algorithmic structure as the CUDA kernels
// (frontier relaxation, block-parallel reductions); only the clock is
// simulated. Work measures (edge relaxations, words XORed, sweeps) are
// counted during real execution and divided by device throughputs
// calibrated once against the paper's reported platform ratios.
package hetero

import "sync"

// Unit is one schedulable work-unit: an opaque index the caller interprets
// (a source vertex, a biconnected component, a witness range) plus a size
// estimate used for sorting.
type Unit struct {
	ID   int32
	Size int64
}

// Deque is the double-ended work queue of [19]: work-units are sorted by
// size, the GPU pops batches from the big end and the CPU from the small
// end, and the computation finishes when the queue is empty. All methods
// are safe for concurrent use.
type Deque struct {
	mu    sync.Mutex
	units []Unit
	head  int // next index for the small end
	tail  int // one past the last index for the big end
}

// NewDeque builds a queue over the given units, sorted ascending by size so
// that the big end (tail) serves the largest units first, "so that the GPU
// starts accessing the bigger workunits" (Section 2.3).
func NewDeque(units []Unit) *Deque {
	sorted := make([]Unit, len(units))
	copy(sorted, units)
	// insertion-free stable sort by size ascending
	sortUnitsBySize(sorted)
	return &Deque{units: sorted, head: 0, tail: len(sorted)}
}

func sortUnitsBySize(u []Unit) {
	// bottom-up merge sort: deterministic, stable, no stdlib sort.Slice
	// closure overhead in the hot path.
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

// PopSmall removes up to batch units from the small end (CPU side).
// It returns nil when the queue is empty.
func (d *Deque) PopSmall(batch int) []Unit {
	d.mu.Lock()
	defer d.mu.Unlock()
	if batch <= 0 {
		batch = 1
	}
	avail := d.tail - d.head
	if avail <= 0 {
		return nil
	}
	if batch > avail {
		batch = avail
	}
	out := d.units[d.head : d.head+batch]
	d.head += batch
	return out
}

// PopBig removes up to batch units from the big end (GPU side).
func (d *Deque) PopBig(batch int) []Unit {
	d.mu.Lock()
	defer d.mu.Unlock()
	if batch <= 0 {
		batch = 1
	}
	avail := d.tail - d.head
	if avail <= 0 {
		return nil
	}
	if batch > avail {
		batch = avail
	}
	out := d.units[d.tail-batch : d.tail]
	d.tail -= batch
	return out
}

// Remaining reports the number of unclaimed units.
func (d *Deque) Remaining() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.tail - d.head
}
