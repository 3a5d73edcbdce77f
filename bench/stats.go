package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// median returns the middle of vs (mean of the two middles for an even
// count); 0 for no values.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentile is the nearest-rank q-quantile of sorted: the smallest value
// with at least q of the samples at or below it.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// spread is (max−min)/median of a metric's segment values.
func spread(vs []float64) float64 {
	m := median(vs)
	if len(vs) == 0 || m == 0 {
		return 0
	}
	lo, hi := vs[0], vs[0]
	for _, v := range vs {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return (hi - lo) / m
}

// statsSnap is one scrape of the daemon's /v1/stats: counters and gauges
// as numbers, histograms as their exported fields under "name/field".
type statsSnap map[string]float64

func parseStats(raw []byte) (statsSnap, error) {
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	s := statsSnap{}
	for k, v := range top {
		var f float64
		if json.Unmarshal(v, &f) == nil {
			s[k] = f
			continue
		}
		var obj map[string]float64
		if json.Unmarshal(v, &obj) == nil {
			for field, fv := range obj {
				s[k+"/"+field] = fv
			}
		}
	}
	return s, nil
}

// get sums name over the daemon root and every per-graph scope
// ("g.<graph>.<name>" in registry mode). ok is false when the daemon
// exports no such counter at all.
func (s statsSnap) get(name string) (v float64, ok bool) {
	for k, kv := range s {
		if k == name || (strings.HasPrefix(k, "g.") && strings.HasSuffix(k, "."+name)) {
			v += kv
			ok = true
		}
	}
	return v, ok
}

// statsDiff is the change of the counters between two scrapes.
type statsDiff struct{ before, after statsSnap }

// delta is after−before of a counter; ok is false when it is absent.
func (d statsDiff) delta(name string) (float64, bool) {
	a, ok := d.after.get(name)
	if !ok {
		return 0, false
	}
	b, _ := d.before.get(name)
	return a - b, true
}

// clockTicks is USER_HZ, which Linux fixes at 100 on every architecture
// Go supports.
const clockTicks = 100

// parseProcStat is utime+stime of a process in seconds, from the text of
// /proc/<pid>/stat. The command name may hold spaces and parentheses, so
// fields are counted from the last ')'.
func parseProcStat(stat string) (float64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", stat)
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command", len(f))
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("proc stat: utime %q stime %q", f[11], f[12])
	}
	return (ut + st) / clockTicks, nil
}

func procCPU(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStat(string(raw))
}

// parseSteal is the seconds the host kept the machine's virtual processors
// waiting while they had work to run: the steal column of the first line
// of /proc/stat, summed over the processors.
func parseSteal(stat string) (float64, error) {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0, fmt.Errorf("proc stat: no steal column in %q", line)
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: steal %q", f[8])
	}
	return ticks / clockTicks, nil
}

func hostSteal() float64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	s, _ := parseSteal(string(raw))
	return s
}

// parseVmHWM is the peak resident set in MiB from the text of
// /proc/<pid>/status.
func parseVmHWM(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024, nil
				}
			}
			return 0, fmt.Errorf("proc status: malformed VmHWM line %q", line)
		}
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}

func procPeakRSS(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(raw))
}
