package hetero

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestRunTracedMatchesRun(t *testing.T) {
	units := make([]Unit, 120)
	for i := range units {
		units[i] = Unit{ID: int32(i), Size: int64(1 + i%9)}
	}
	devices := []*Device{MulticoreCPU(), TeslaK40c()}
	exec := func(u Unit, d *Device) Cost { return Cost{Ops: u.Size * 5000, Launches: 1} }
	plain := Run(units, devices, exec)
	traced := RunTraced(units, devices, exec)
	if !reflect.DeepEqual(traced.Schedule, plain) {
		t.Fatalf("a traced run is not scheduled like a plain one:\n%+v\n%+v", traced.Schedule, plain)
	}
	if traced.Schedule.Makespan != plain.Makespan {
		t.Fatalf("traced makespan %v != %v", traced.Schedule.Makespan, plain.Makespan)
	}
	if traced.Schedule.TotalOps != plain.TotalOps {
		t.Fatal("ops differ")
	}
	// events cover every unit
	total := 0
	for _, e := range traced.Events {
		total += e.Units
		if e.End < e.Start {
			t.Fatal("negative event duration")
		}
	}
	if total != len(units) {
		t.Fatalf("events cover %d units", total)
	}
	// events on a slot never overlap
	type key struct {
		dev  string
		slot int
	}
	last := map[key]float64{}
	for _, e := range traced.Events {
		k := key{e.Device, e.Slot}
		if e.Start < last[k]-1e-12 {
			t.Fatalf("overlapping events on %v", k)
		}
		last[k] = e.End
	}
}

func TestGanttRendering(t *testing.T) {
	units := make([]Unit, 40)
	for i := range units {
		units[i] = Unit{ID: int32(i), Size: 3}
	}
	devices := []*Device{SequentialCPU(), TeslaK40c()}
	tr := RunTraced(units, devices, func(u Unit, d *Device) Cost {
		return Cost{Ops: 1e5, Launches: 1}
	})
	var buf bytes.Buffer
	if err := tr.WriteGantt(&buf, 60); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "#") || !strings.Contains(out, "makespan") {
		t.Fatalf("gantt output malformed:\n%s", out)
	}
	util := tr.Utilization(devices)
	for name, u := range util {
		if u < 0 || u > 1.000001 {
			t.Fatalf("utilization of %s out of range: %v", name, u)
		}
	}
}

func TestGanttEmpty(t *testing.T) {
	tr := RunTraced(nil, []*Device{SequentialCPU()}, func(u Unit, d *Device) Cost { return Cost{} })
	var buf bytes.Buffer
	if err := tr.WriteGantt(&buf, 40); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "empty") {
		t.Fatal("empty schedule not reported")
	}
}
