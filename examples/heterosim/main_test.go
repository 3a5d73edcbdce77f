package main

import (
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/hetero"
)

// TestPrintsInDeviceOrder: the per-device fields of a schedule's line and
// the utilization lines follow the device slice, on every call and for
// either order of the slice.
func TestPrintsInDeviceOrder(t *testing.T) {
	units := make([]hetero.Unit, 64)
	for i := range units {
		units[i] = hetero.Unit{ID: int32(i), Size: int64(i%7 + 1)}
	}
	cost := func(u hetero.Unit, d *hetero.Device) hetero.Cost { return hetero.Cost{Ops: u.Size * 1000, Launches: 1} }
	field := regexp.MustCompile(`\[(\S+):`)
	line := regexp.MustCompile(`(?m)^utilization (\S+)`)
	names := func(re *regexp.Regexp, s string) (out []string) {
		for _, m := range re.FindAllStringSubmatch(s, -1) {
			out = append(out, m[1])
		}
		return out
	}
	for _, devices := range [][]*hetero.Device{
		{hetero.SequentialCPU(), hetero.MulticoreCPU(), hetero.TeslaK40c()},
		{hetero.TeslaK40c(), hetero.MulticoreCPU(), hetero.SequentialCPU()},
	} {
		var want []string
		for _, d := range devices {
			want = append(want, d.Name)
		}
		sched := hetero.Run(units, devices, cost)
		tr := hetero.RunTraced(units, devices, cost)
		// Go randomises a map's range order per loop, so a print that
		// ranged over the maps would fail one of these calls.
		for i := 0; i < 20; i++ {
			var b strings.Builder
			printDevices(&b, sched, devices)
			if got := names(field, b.String()); !slices.Equal(got, want) {
				t.Fatalf("schedule fields in order %v, want %v:\n%s", got, want, b.String())
			}
			b.Reset()
			printUtilization(&b, tr, devices)
			if got := names(line, b.String()); !slices.Equal(got, want) {
				t.Fatalf("utilization lines in order %v, want %v:\n%s", got, want, b.String())
			}
		}
	}
}
