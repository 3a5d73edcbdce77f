package hetero

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

// The work queue lives inside run: units sorted ascending by size, a
// non-Big slot claiming from the small end and a Big slot from the big end.
// These tests watch it through the order in which exec sees the units.

// claim is one exec call: the unit and the device it ran on.
type claim struct {
	Unit
	dev string
}

// runOrder runs units on devs, every unit costing one op, and returns the
// exec calls in order with the trace of the run.
func runOrder(units []Unit, devs ...*Device) ([]claim, *Trace) {
	var got []claim
	tr := RunTraced(units, devs, func(u Unit, d *Device) Cost {
		got = append(got, claim{u, d.Name})
		return Cost{Ops: 1, Launches: 1}
	})
	return got, tr
}

// small and big are unit-speed devices with one slot each, claiming batch
// units at a time from the small and the big end.
func small(batch int) *Device {
	return &Device{Name: "small", Slots: 1, OpsPerSec: 1, BatchSize: batch}
}

func big(batch int) *Device {
	return &Device{Name: "big", Slots: 1, OpsPerSec: 1, BatchSize: batch, Big: true}
}

func sizes(cs []claim) []int64 {
	out := make([]int64, len(cs))
	for i, c := range cs {
		out[i] = c.Size
	}
	return out
}

func TestDequeSortedAndEnds(t *testing.T) {
	units := []Unit{{ID: 0, Size: 5}, {ID: 1, Size: 1}, {ID: 2, Size: 9}, {ID: 3, Size: 3}}
	if got, _ := runOrder(units, small(1)); !slices.Equal(sizes(got), []int64{1, 3, 5, 9}) {
		t.Errorf("small end runs sizes %v, want ascending", sizes(got))
	}
	if got, _ := runOrder(units, big(1)); !slices.Equal(sizes(got), []int64{9, 5, 3, 1}) {
		t.Errorf("big end runs sizes %v, want descending", sizes(got))
	}
	// Equal clocks: the slot listed first claims first, then the ends alternate.
	got, _ := runOrder(units, small(1), big(1))
	want := []claim{{units[1], "small"}, {units[2], "big"}, {units[3], "small"}, {units[0], "big"}}
	if !slices.Equal(got, want) {
		t.Errorf("two ends claimed %v, want %v", got, want)
	}
}

// Property: for arbitrary sizes the small end runs every unit once, in
// ascending size with ties in input order, and the big end runs them in
// exactly the reverse order.
func TestDequeSortProperty(t *testing.T) {
	f := func(raw []int8) bool {
		units := make([]Unit, len(raw))
		for i, s := range raw {
			units[i] = Unit{ID: int32(i), Size: int64(s % 4)} // few sizes, many ties
		}
		up, _ := runOrder(units, small(1))
		want := slices.Clone(units)
		slices.SortStableFunc(want, func(a, b Unit) int { return int(a.Size - b.Size) })
		for i, c := range up {
			if c.Unit != want[i] {
				return false
			}
		}
		down, _ := runOrder(units, big(1))
		slices.Reverse(down)
		for i := range down {
			down[i].dev = "small"
		}
		return len(up) == len(units) && slices.Equal(up, down)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// BatchSize 0 claims one unit per batch, from either end.
func TestDequeBatchClamping(t *testing.T) {
	units := []Unit{{ID: 0, Size: 1}, {ID: 1, Size: 2}, {ID: 2, Size: 3}}
	for _, dev := range []*Device{small(0), big(0)} {
		got, tr := runOrder(units, dev)
		if len(got) != len(units) || len(tr.Events) != len(units) {
			t.Fatalf("%s: %d units in %d batches, want %d in %d", dev.Name, len(got), len(tr.Events), len(units), len(units))
		}
		for _, e := range tr.Events {
			if e.Units != 1 {
				t.Fatalf("%s: batch of %d units", dev.Name, e.Units)
			}
		}
	}
}

// A batch larger than the queue is one event holding every unit, run in
// ascending size from either end.
func TestDequePopSmallOversizedBatch(t *testing.T) { testOversizedBatch(t, small(10)) }

func TestDequePopBigOversizedBatch(t *testing.T) { testOversizedBatch(t, big(10)) }

func testOversizedBatch(t *testing.T, dev *Device) {
	got, tr := runOrder([]Unit{{ID: 0, Size: 2}, {ID: 1, Size: 1}, {ID: 2, Size: 3}}, dev)
	if len(tr.Events) != 1 || tr.Events[0].Units != 3 {
		t.Fatalf("events %+v, want one batch of 3 units", tr.Events)
	}
	if !slices.Equal(sizes(got), []int64{1, 2, 3}) {
		t.Fatalf("batch ran sizes %v, want ascending", sizes(got))
	}
}

func TestDequeEmpty(t *testing.T) {
	for _, units := range [][]Unit{nil, {}} {
		calls := 0
		sched := Run(units, []*Device{small(1), big(1)}, func(Unit, *Device) Cost {
			calls++
			return Cost{Ops: 1, Launches: 1}
		})
		if calls != 0 || sched.Makespan != 0 || sched.TotalOps != 0 || len(sched.BusyByDevice) != 0 || len(sched.UnitsByDevice) != 0 {
			t.Fatalf("%v units: %d exec calls, schedule %+v", units, calls, sched)
		}
	}
}

// The two ends drain the queue between them: every unit runs once, the
// small end's units all below the big end's.
func TestDequeInterleavedDrainToZero(t *testing.T) {
	const n = 25
	units := make([]Unit, n)
	for i := range units {
		units[i] = Unit{ID: int32(i), Size: int64(i)}
	}
	got, _ := runOrder(units, small(2), big(3))
	seen := make([]bool, n)
	lo, hi := int64(-1), int64(n)
	for _, c := range got {
		if seen[c.ID] {
			t.Fatalf("unit %d ran twice", c.ID)
		}
		seen[c.ID] = true
		if c.dev == "small" {
			lo = max(lo, c.Size)
		} else {
			hi = min(hi, c.Size)
		}
	}
	if len(got) != n || lo >= hi {
		t.Fatalf("%d of %d units ran; small end reached size %d, big end %d", len(got), n, lo, hi)
	}
}

// One unit runs once, on the slot listed first.
func TestDequeSingleUnitBothEnds(t *testing.T) {
	u := Unit{ID: 7, Size: 42}
	for _, devs := range [][]*Device{{small(1), big(1)}, {big(1), small(1)}} {
		got, _ := runOrder([]Unit{u}, devs...)
		if want := []claim{{u, devs[0].Name}}; !slices.Equal(got, want) {
			t.Errorf("ran %v, want %v", got, want)
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
