package hetero

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// TraceEvent is one executed batch in a traced schedule.
type TraceEvent struct {
	Device string
	Slot   int
	Start  float64 // virtual seconds
	End    float64
	Units  int
}

// Trace is a recorded schedule: the events of every slot, ordered by start
// time, plus the resulting Schedule summary.
type Trace struct {
	Schedule *Schedule
	Events   []TraceEvent
}

// RunTraced is Run with event recording, for schedule inspection and the
// Gantt rendering below.
func RunTraced(units []Unit, devices []*Device, exec func(u Unit, d *Device) Cost) *Trace {
	tr := &Trace{}
	tr.Schedule = run(units, devices, exec, func(sl *slot, dt float64, units int) {
		tr.Events = append(tr.Events, TraceEvent{
			Device: sl.dev.Name,
			Slot:   sl.local,
			Start:  sl.clock,
			End:    sl.clock + dt,
			Units:  units,
		})
	})
	sort.Slice(tr.Events, func(i, j int) bool {
		if tr.Events[i].Device != tr.Events[j].Device {
			return tr.Events[i].Device < tr.Events[j].Device
		}
		if tr.Events[i].Slot != tr.Events[j].Slot {
			return tr.Events[i].Slot < tr.Events[j].Slot
		}
		return tr.Events[i].Start < tr.Events[j].Start
	})
	return tr
}

// WriteGantt renders the trace as a text Gantt chart, one row per slot,
// width columns across the makespan. Busy time is drawn with '#', idle
// with '.'.
func (tr *Trace) WriteGantt(w io.Writer, width int) error {
	if width < 10 {
		width = 80
	}
	makespan := tr.Schedule.Makespan
	if makespan <= 0 {
		_, err := fmt.Fprintln(w, "(empty schedule)")
		return err
	}
	type row struct {
		label string
		cells []bool
	}
	rows := map[string]*row{}
	var order []string
	for _, e := range tr.Events {
		key := fmt.Sprintf("%s/%02d", e.Device, e.Slot)
		r, ok := rows[key]
		if !ok {
			r = &row{label: key, cells: make([]bool, width)}
			rows[key] = r
			order = append(order, key)
		}
		lo := int(e.Start / makespan * float64(width))
		hi := int(e.End / makespan * float64(width))
		if hi == lo {
			hi = lo + 1
		}
		for i := lo; i < hi && i < width; i++ {
			r.cells[i] = true
		}
	}
	sort.Strings(order)
	for _, key := range order {
		r := rows[key]
		var b strings.Builder
		for _, busy := range r.cells {
			if busy {
				b.WriteByte('#')
			} else {
				b.WriteByte('.')
			}
		}
		if _, err := fmt.Fprintf(w, "%-14s |%s|\n", r.label, b.String()); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%-14s  makespan %.4fs, %d ops\n", "", makespan, tr.Schedule.TotalOps)
	return err
}

// Utilization returns busy/(makespan·slots) per device.
func (tr *Trace) Utilization(devices []*Device) map[string]float64 {
	out := map[string]float64{}
	for _, d := range devices {
		if tr.Schedule.Makespan > 0 {
			out[d.Name] = tr.Schedule.BusyByDevice[d.Name] / (tr.Schedule.Makespan * float64(d.Slots))
		}
	}
	return out
}
