// Command bench is the benchmark of this repository. It drives real oracled
// processes, built from the working tree, in every boot mode plus the
// paper's build pipeline, verifies every answer it times against an
// in-process reference oracle, and attributes the numbers to layers.
//
//	go run -C bench .                                  # all six workloads
//	go run -C bench . -workload point_cold -seed 7     # one workload
//	go run -C bench . -workload point_cold -trace 1    # its per-layer pass
//
// -seed is the only input that changes the workload (datasets and request
// sequences). The last line of standard output is one JSON object, as
// BENCHMARK.json at the repository root describes; see README.md here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
)

func main() {
	var (
		only    = flag.String("workload", "", "run only this workload (default: all six, one after another)")
		seed    = flag.Uint64("seed", 1, "seed of the datasets and the request sequences")
		seconds = flag.Float64("seconds", 0, "measured seconds per workload (default: run_seconds of BENCHMARK.json)")
		trace   = flag.Int("trace", 0, "0 measures the end-to-end metrics; 1 runs the traced per-layer pass")
		// The benchmark starts itself with these two; see reference.go.
		reference = flag.Bool("reference", false, "serve as a workload's reference server")
		addr      = flag.String("addr", "127.0.0.1:0", "with -reference, the address to listen on")
	)
	flag.Parse()
	if *reference {
		fmt.Fprintln(os.Stderr, "bench:", serveReference(*addr))
		os.Exit(1)
	}
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: go run -C bench . [-workload name] [-seed n] [-seconds s] [-trace 0|1]")
		os.Exit(2)
	}
	os.Exit(run(*only, *seed, *seconds, *trace == 1))
}

func run(only string, seed uint64, seconds float64, traced bool) int {
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	spec, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if seconds <= 0 {
		seconds = float64(spec.RunSeconds)
	}
	var todo []workload
	for _, w := range workloads {
		if only == "" || only == w.name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", only)
		return 2
	}

	h, err := newHarness(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer h.close()
	fmt.Printf("bench: nproc %d GOMAXPROCS %d %s seed %d seconds %g trace %v\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), seed, seconds, traced)

	code := 0
	for _, w := range todo {
		out, err := w.run(h, runConfig{seed: seed, seconds: seconds, traced: traced})
		h.stopAll()
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		if leaked := h.leaked(); len(leaked) > 0 {
			out.fail("leaked daemons: pids %v", leaked)
		}
		defs := spec.EndToEnd
		if traced {
			defs = spec.PerLayer
		}
		res, err := out.result(defs, traced)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		printTable(w.name, defs, res, out)
		line, _ := json.Marshal(res)
		fmt.Println(string(line))
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what one workload measured: named values, the per-segment
// values behind each median, and the failures of its self-checks.
type outcome struct {
	mu                sync.Mutex // fail and note are called from the writer beside the load
	attempted, failed int
	values            map[string]float64
	segments          map[string][]float64
	absent            map[string]bool // counters the daemon does not export
	problems          []string
	notes             []string
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, segments: map[string][]float64{}, absent: map[string]bool{}}
}

func (o *outcome) set(name string, v float64) { o.values[name] = v }

// setSegments records a metric as the median of its per-segment values.
func (o *outcome) setSegments(name string, segs []float64) {
	o.segments[name] = segs
	o.values[name] = median(segs)
}

func (o *outcome) fail(format string, args ...interface{}) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...interface{}) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// result renders the outcome against the metric list of BENCHMARK.json.
// Every end-to-end metric must have been measured; a per-layer metric that
// does not apply to the workload reads 0.
func (o *outcome) result(defs []metricDef, traced bool) (result, error) {
	r := result{
		Correct:   len(o.problems) == 0 && o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metric{},
	}
	for _, d := range defs {
		v, ok := o.values[d.Name]
		if !ok && !traced {
			return r, fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		r.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return r, nil
}

func printTable(name string, defs []metricDef, res result, o *outcome) {
	fmt.Printf("== %s: attempted %d failed %d correct %v\n", name, res.Attempted, res.Failed, res.Correct)
	for _, d := range defs {
		v, ok := o.values[d.Name]
		switch {
		case o.absent[d.Name]:
			fmt.Printf("  %-32s %14s %-10s\n", d.Name, "null", d.Unit)
		case !ok:
			fmt.Printf("  %-32s %14s %-10s\n", d.Name, "-", d.Unit)
		default:
			fmt.Printf("  %-32s %14.6g %-10s", d.Name, v, d.Unit)
			if segs := o.segments[d.Name]; len(segs) > 1 {
				fmt.Printf(" segments %s spread %.3f", fmtSegs(segs), spread(segs))
			}
			fmt.Println()
		}
	}
	var extra []string
	for k := range o.values {
		if _, ok := res.Metrics[k]; !ok {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	for _, k := range extra {
		fmt.Printf("  (%s = %.6g)", k, o.values[k])
		if segs := o.segments[k]; len(segs) > 1 {
			fmt.Printf(" segments %s", fmtSegs(segs))
		}
		fmt.Println()
	}
	for _, n := range o.notes {
		fmt.Println("  note:", n)
	}
	for _, p := range o.problems {
		fmt.Println("  FAILED:", p)
	}
}

func fmtSegs(segs []float64) string {
	s := "["
	for i, v := range segs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.4g", v)
	}
	return s + "]"
}
