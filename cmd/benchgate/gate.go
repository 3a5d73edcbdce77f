package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// benchResult is one parsed benchmark measurement.
type benchResult struct {
	Name     string  // suffix-stripped: BenchmarkQEQueryWarm, not ...Warm-8
	NsOp     float64 `json:"ns_op"`
	AllocsOp float64 `json:"allocs_op"`
	hasAlloc bool
}

// baselineFile is the committed reference (ci/bench_baseline.json).
// Only benchmarks listed here are gated; everything else in the input is
// reported as untracked. AllocsOp is the gated metric — it is
// deterministic for the steady-state benchmarks this gate tracks — and a
// zero baseline means exactly zero is required, no percentage slack.
// NsOp is recorded for the report and gated only when the ns threshold
// is enabled (shared CI runners are too noisy for a hard wall-clock
// gate; locally it holds regressions to the threshold).
type baselineFile struct {
	Benchmarks map[string]benchBaseline `json:"benchmarks"`
}

type benchBaseline struct {
	NsOp     float64 `json:"ns_op"`
	AllocsOp float64 `json:"allocs_op"`
}

// testEvent is the subset of go test -json's event stream the parser
// needs.
type testEvent struct {
	Action string `json:"Action"`
	Output string `json:"Output"`
}

// benchLine matches a benchmark result line as printed by the testing
// package: name, iterations, ns/op, and (with -benchmem or ReportAllocs)
// B/op and allocs/op. Metrics a benchmark reports itself (b.ReportMetric,
// SetBytes' MB/s) are printed between ns/op and B/op and are skipped.
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+)\s+\d+\s+([0-9.]+) ns/op(?:(?:\s+[0-9.e+-]+ \S+)*?\s+([0-9.]+) B/op\s+([0-9.]+) allocs/op)?`)

// nameSuffix strips the -<GOMAXPROCS> suffix the harness appends.
var nameSuffix = regexp.MustCompile(`-\d+$`)

// parseBench reads a go test -json stream (or raw go test -bench output)
// and returns the benchmark results in input order. The -json framing
// splits one bench result line across several output events (the testing
// package prints the name, then the measurements, as separate writes), so
// the events' Output fragments are concatenated back into a text stream
// before line-by-line matching.
func parseBench(r io.Reader) ([]benchResult, error) {
	var text strings.Builder
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "{") {
			var ev testEvent
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				return nil, fmt.Errorf("bad -json line: %w", err)
			}
			if ev.Action == "output" {
				text.WriteString(ev.Output) // fragments carry their own \n
			}
			continue
		}
		text.WriteString(line)
		text.WriteString("\n")
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	var out []benchResult
	for _, line := range strings.Split(text.String(), "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		res := benchResult{Name: nameSuffix.ReplaceAllString(m[1], "")}
		res.NsOp, _ = strconv.ParseFloat(m[2], 64)
		if m[4] != "" {
			res.AllocsOp, _ = strconv.ParseFloat(m[4], 64)
			res.hasAlloc = true
		}
		out = append(out, res)
	}
	return out, nil
}

// gateReport is the outcome of comparing results against a baseline.
type gateReport struct {
	Table    string   // benchstat-style human-readable comparison
	Failures []string // one line per violated bound; empty = gate green
}

// gate compares results to the baseline. allocsThreshold and nsThreshold
// are relative slacks (0.10 = +10%); a negative nsThreshold disables the
// wall-clock gate. A zero allocs baseline tolerates no allocations at
// all, and a baseline benchmark missing from the input is a failure —
// a deleted benchmark must not silently pass its gate.
func gate(results []benchResult, base baselineFile, allocsThreshold, nsThreshold float64) gateReport {
	byName := make(map[string]benchResult, len(results))
	for _, r := range results {
		byName[r.Name] = r
	}
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)

	var rep gateReport
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %14s %14s %16s %16s\n", "benchmark", "ns/op", "baseline", "allocs/op", "baseline")
	for _, name := range names {
		want := base.Benchmarks[name]
		got, ok := byName[name]
		if !ok {
			rep.Failures = append(rep.Failures,
				fmt.Sprintf("%s: in baseline but missing from input", name))
			fmt.Fprintf(&b, "%-28s %14s %14.1f %16s %16.4g\n", name, "MISSING", want.NsOp, "MISSING", want.AllocsOp)
			continue
		}
		fmt.Fprintf(&b, "%-28s %14.1f %14.1f %16.4g %16.4g\n", name, got.NsOp, want.NsOp, got.AllocsOp, want.AllocsOp)
		if !got.hasAlloc {
			rep.Failures = append(rep.Failures,
				fmt.Sprintf("%s: no allocs/op in input (run with -benchmem or b.ReportAllocs)", name))
			continue
		}
		switch {
		case want.AllocsOp == 0 && got.AllocsOp > 0:
			rep.Failures = append(rep.Failures,
				fmt.Sprintf("%s: %.4g allocs/op, baseline requires exactly 0", name, got.AllocsOp))
		case got.AllocsOp > want.AllocsOp*(1+allocsThreshold):
			rep.Failures = append(rep.Failures,
				fmt.Sprintf("%s: %.4g allocs/op exceeds baseline %.4g by more than %.0f%%",
					name, got.AllocsOp, want.AllocsOp, allocsThreshold*100))
		}
		if nsThreshold >= 0 && want.NsOp > 0 && got.NsOp > want.NsOp*(1+nsThreshold) {
			rep.Failures = append(rep.Failures,
				fmt.Sprintf("%s: %.1f ns/op exceeds baseline %.1f by more than %.0f%%",
					name, got.NsOp, want.NsOp, nsThreshold*100))
		}
	}
	for _, r := range results {
		if _, tracked := base.Benchmarks[r.Name]; !tracked {
			fmt.Fprintf(&b, "%-28s %14.1f %14s %16.4g %16s\n", r.Name, r.NsOp, "untracked", r.AllocsOp, "untracked")
		}
	}
	rep.Table = b.String()
	return rep
}

// updateBaseline folds results into base: tracked entries are refreshed,
// and with addAll every input benchmark becomes tracked.
func updateBaseline(base *baselineFile, results []benchResult, addAll bool) {
	if base.Benchmarks == nil {
		base.Benchmarks = make(map[string]benchBaseline)
	}
	for _, r := range results {
		if _, tracked := base.Benchmarks[r.Name]; tracked || addAll {
			base.Benchmarks[r.Name] = benchBaseline{NsOp: r.NsOp, AllocsOp: r.AllocsOp}
		}
	}
}
