package hetero

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestDequeSortedAndEnds(t *testing.T) {
	units := []Unit{{ID: 0, Size: 5}, {ID: 1, Size: 1}, {ID: 2, Size: 9}, {ID: 3, Size: 3}}
	d := NewDeque(units)
	small := d.PopSmall(1)
	if len(small) != 1 || small[0].Size != 1 {
		t.Fatalf("small end wrong: %+v", small)
	}
	big := d.PopBig(1)
	if len(big) != 1 || big[0].Size != 9 {
		t.Fatalf("big end wrong: %+v", big)
	}
	if d.Remaining() != 2 {
		t.Fatalf("remaining %d", d.Remaining())
	}
	rest := d.PopSmall(10)
	if len(rest) != 2 || rest[0].Size != 3 || rest[1].Size != 5 {
		t.Fatalf("rest wrong: %+v", rest)
	}
	if d.PopSmall(1) != nil || d.PopBig(1) != nil {
		t.Fatal("empty deque should return nil")
	}
}

func TestDequeBatchClamping(t *testing.T) {
	d := NewDeque([]Unit{{ID: 0, Size: 1}, {ID: 1, Size: 2}})
	if got := d.PopBig(0); len(got) != 1 {
		t.Fatal("batch 0 should clamp to 1")
	}
	if got := d.PopSmall(99); len(got) != 1 {
		t.Fatal("oversized batch should clamp to remaining")
	}
}

// Property: under concurrent mixed pops, every unit is delivered exactly
// once — the queue never loses or duplicates work.
func TestDequeConcurrentExactlyOnce(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		n := 500
		units := make([]Unit, n)
		for i := range units {
			units[i] = Unit{ID: int32(i), Size: int64(i % 37)}
		}
		d := NewDeque(units)
		var seen sync.Map
		var dup int32
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for {
					var batch []Unit
					if w%2 == 0 {
						batch = d.PopSmall(3)
					} else {
						batch = d.PopBig(7)
					}
					if len(batch) == 0 {
						return
					}
					for _, u := range batch {
						if _, loaded := seen.LoadOrStore(u.ID, true); loaded {
							atomic.AddInt32(&dup, 1)
						}
					}
				}
			}(w)
		}
		wg.Wait()
		if dup != 0 {
			t.Fatalf("%d duplicated units", dup)
		}
		count := 0
		seen.Range(func(k, v interface{}) bool { count++; return true })
		if count != n {
			t.Fatalf("delivered %d of %d units", count, n)
		}
	}
}

func TestRunSchedulesEveryUnitOnce(t *testing.T) {
	units := make([]Unit, 100)
	for i := range units {
		units[i] = Unit{ID: int32(i), Size: int64(100 - i)}
	}
	devices := []*Device{MulticoreCPU(), TeslaK40c()}
	counts := make([]int, 100)
	sched := Run(units, devices, func(u Unit, d *Device) Cost {
		counts[u.ID]++
		return Cost{Ops: u.Size * 1000, Launches: 1}
	})
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("unit %d executed %d times", i, c)
		}
	}
	total := 0
	for _, c := range sched.UnitsByDevice {
		total += c
	}
	if total != 100 {
		t.Fatalf("scheduled %d", total)
	}
	if sched.Makespan <= 0 || sched.TotalOps <= 0 {
		t.Fatalf("degenerate schedule: %+v", sched)
	}
	// makespan is at least busy/slots for each device and at most total busy
	var busy float64
	for _, b := range sched.BusyByDevice {
		busy += b
	}
	if sched.Makespan > busy+1e-12 {
		t.Fatal("makespan exceeds total busy time")
	}
	if sched.String() == "" {
		t.Fatal("empty schedule description")
	}
}

func TestRunOnSingleDeviceMakespanIsTotalWork(t *testing.T) {
	units := []Unit{{ID: 0, Size: 1}, {ID: 1, Size: 2}, {ID: 2, Size: 3}}
	dev := SequentialCPU()
	sched := Run(units, []*Device{dev}, func(u Unit, d *Device) Cost {
		return Cost{Ops: 1e6, Launches: 1}
	})
	want := 3e6 / dev.OpsPerSec
	if diff := sched.Makespan - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("makespan %v, want %v", sched.Makespan, want)
	}
}

func TestStreamRate(t *testing.T) {
	dev := SequentialCPU()
	slow := dev.slotTime([]Cost{{Ops: 1e6, Launches: 1}})
	fast := dev.slotTime([]Cost{{Ops: 1e6, Launches: 1, Stream: true}})
	if fast >= slow {
		t.Fatalf("streaming should be faster: %v vs %v", fast, slow)
	}
}

func TestLaunchOverheadCharged(t *testing.T) {
	gpu := TeslaK40c()
	base := gpu.slotTime([]Cost{{Ops: 0, Launches: 1}})
	multi := gpu.slotTime([]Cost{{Ops: 0, Launches: 10}})
	if base != gpu.LaunchOverhead {
		t.Fatalf("single launch cost %v", base)
	}
	if multi != 10*gpu.LaunchOverhead {
		t.Fatalf("ten launches cost %v", multi)
	}
	// batch of two single-launch units shares one launch
	batch := gpu.slotTime([]Cost{{Ops: 0, Launches: 1}, {Ops: 0, Launches: 1}})
	if batch != gpu.LaunchOverhead {
		t.Fatalf("batched launch cost %v", batch)
	}
}

func TestGreedyBalance(t *testing.T) {
	// With one fast and one slow device, the fast device must take more
	// units under list scheduling.
	units := make([]Unit, 90)
	for i := range units {
		units[i] = Unit{ID: int32(i), Size: 1}
	}
	slow := &Device{Name: "slow", Slots: 1, OpsPerSec: 1e6, BatchSize: 1}
	fast := &Device{Name: "fast", Slots: 1, OpsPerSec: 9e6, BatchSize: 1, Big: true}
	sched := Run(units, []*Device{slow, fast}, func(u Unit, d *Device) Cost {
		return Cost{Ops: 1e4, Launches: 1}
	})
	if sched.UnitsByDevice["fast"] <= 5*sched.UnitsByDevice["slow"] {
		t.Fatalf("balance wrong: %+v", sched.UnitsByDevice)
	}
}

// Property: sorting by size is stable and complete for arbitrary inputs.
func TestDequeSortProperty(t *testing.T) {
	f := func(sizes []int64) bool {
		units := make([]Unit, len(sizes))
		for i, s := range sizes {
			units[i] = Unit{ID: int32(i), Size: s}
		}
		d := NewDeque(units)
		out := d.PopSmall(len(units) + 1)
		if len(out) != len(units) {
			return len(units) == 0
		}
		for i := 1; i < len(out); i++ {
			if out[i-1].Size > out[i].Size {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestUniformMakespansMatchRun: the one recorded schedule gives, for every
// prefix length, the makespan a Run of that many units gives — the same
// float64 bits, on every device set the packages price on.
func TestUniformMakespansMatchRun(t *testing.T) {
	const n = 700 // past two GPU batches and many rounds of the CPU slots
	for name, devs := range map[string][]*Device{
		"seq": {SequentialCPU()}, "mc": {MulticoreCPU()}, "gpu": {TeslaK40c()}, "cpu+gpu": {MulticoreCPU(), TeslaK40c()},
	} {
		for _, cost := range []Cost{{Ops: 9, Launches: 1, Stream: true}, {Ops: 1234, Launches: 3}} {
			got := UniformMakespans(n, devs, cost)
			if len(got) != n {
				t.Fatalf("%s: %d makespans for %d units", name, len(got), n)
			}
			units := make([]Unit, n)
			for r := 1; r <= n; r++ {
				want := Run(units[:r], devs, func(Unit, *Device) Cost { return cost }).Makespan
				if math.Float64bits(got[r-1]) != math.Float64bits(want) {
					t.Fatalf("%s %+v: %d units: makespan %v, Run gives %v", name, cost, r, got[r-1], want)
				}
			}
		}
	}
	if got := UniformMakespans(0, []*Device{SequentialCPU()}, Cost{Ops: 1}); len(got) != 0 {
		t.Errorf("no units: %v", got)
	}
}
