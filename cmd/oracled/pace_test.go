package main

import (
	"math"
	"runtime/debug"
	"testing"

	"repro/internal/obs"
)

func TestMemLimit(t *testing.T) {
	for _, c := range []struct {
		live, scan uint64
		want       int64
	}{
		{0, 0, paceFloor},
		{3 << 20, 1 << 19, 7<<19 + paceFloor},         // 2·live leaves under paceMin
		{11 << 20, 3 << 20, 22<<20 - 11<<16},          // 31/32 of 2·live
		{16 << 20, 9 << 20, 31 << 20},                 // 31/32 of 2·live is live + scan + paceMin
		{16 << 20, 9<<20 + 1, 25<<20 + 1 + paceFloor}, // one byte short of paceMin
		{24 << 20, 3 << 20, 27<<20 + paceFloor},       // live + scan + paceFloor is under 2·live
		{33 << 20, 3 << 20, 36<<20 + paceFloor},
		{math.MaxInt64 - paceFloor - 2, 1, math.MaxInt64 - 1},
		{math.MaxInt64 - paceFloor - 1, 1, math.MaxInt64},
		{math.MaxInt64 - paceFloor, 1, math.MaxInt64},
		{math.MaxInt64, 0, math.MaxInt64},
		{math.MaxUint64, 0, math.MaxInt64},
		{1 << 63, 1 << 63, math.MaxInt64}, // the sum wraps to 0
		{math.MaxUint64, math.MaxUint64, math.MaxInt64},
	} {
		if got := memLimit(c.live, c.scan); got != c.want {
			t.Errorf("memLimit(%d, %d) = %d, want %d", c.live, c.scan, got, c.want)
		}
	}
}

// TestPacerOffWhenTuned: with GOGC or GOMEMLIMIT in the environment the
// pacer starts nothing, registers no gauge and leaves the limit alone.
func TestPacerOffWhenTuned(t *testing.T) {
	before := debug.SetMemoryLimit(-1)
	for _, env := range []map[string]string{
		{"GOGC": "100"},
		{"GOGC": "off"},
		{"GOMEMLIMIT": "45MiB"},
		{"GOGC": "200", "GOMEMLIMIT": "1GiB"},
	} {
		reg := obs.NewRegistry()
		if startPacer(reg, func(k string) string { return env[k] }) {
			t.Errorf("%v: the pacer started", env)
		}
		if s := reg.String(); s != "{}" {
			t.Errorf("%v: the pacer registered %s", env, s)
		}
	}
	if after := debug.SetMemoryLimit(-1); after != before {
		t.Errorf("memory limit %d → %d", before, after)
	}
}
