package main

import (
	"math"
	"runtime/debug"
	"testing"

	"repro/internal/obs"
)

func TestMemLimit(t *testing.T) {
	const h = paceHeadroom
	for _, c := range []struct {
		live, scan, nonheap uint64
		want                int64
	}{
		{0, 0, 0, h},
		{7 << 20, 1 << 20, 6 << 20, 14<<20 + h}, // blocks-sized: above 2·live, which no longer caps it
		{3 << 20, 1 << 19, 6 << 20, 19<<19 + h}, // a cluster frontend: the non-heap bytes outweigh the heap
		{33 << 20, 3 << 20, 5 << 20, 41<<20 + h},
		{math.MaxInt64 - h - 2, 1, 0, math.MaxInt64 - 1},
		{math.MaxInt64 - h - 1, 0, 1, math.MaxInt64},
		{math.MaxInt64 - h, 1, 0, math.MaxInt64},
		{0, 0, math.MaxInt64 - h + 1, math.MaxInt64},
		{math.MaxInt64, 0, 0, math.MaxInt64},
		{math.MaxUint64, 0, 0, math.MaxInt64},
		{1 << 63, 1 << 63, 0, math.MaxInt64}, // the sum wraps to 0
		{0, 1 << 63, 1 << 63, math.MaxInt64},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64, math.MaxInt64},
	} {
		if got := memLimit(c.live, c.scan, c.nonheap); got != c.want {
			t.Errorf("memLimit(%d, %d, %d) = %d, want %d", c.live, c.scan, c.nonheap, got, c.want)
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
