package main

import (
	"strings"
	"testing"
)

// jsonStream wraps raw bench lines in the go test -json event framing.
func jsonStream(lines ...string) string {
	var b strings.Builder
	b.WriteString(`{"Action":"run","Test":"x"}` + "\n") // non-output event: ignored
	for _, l := range lines {
		l = strings.ReplaceAll(l, "\t", `\t`) // JSON-escape the tabs
		b.WriteString(`{"Action":"output","Output":"` + l + `\n"}` + "\n")
	}
	return b.String()
}

func TestParseBenchJSON(t *testing.T) {
	in := jsonStream(
		"BenchmarkQEQueryWarm-8 \t 2000\t 110.6 ns/op\t 0 B/op\t 0 allocs/op",
		"BenchmarkQEBatchWarm \t 2000\t 15819 ns/op\t 34561 B/op\t 2 allocs/op",
		"BenchmarkQERowBuild-4 \t 300\t 11744 ns/op", // no -benchmem columns
		"BenchmarkDistancesOnly-2 \t 100\t 137928 ns/op\t 9.861 ns/relax\t 1.2e+03 MB/s\t 16 B/op\t 3 allocs/op",
		"ok  \trepro/internal/qe\t0.2s",
	)
	got, err := parseBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("parsed %d results, want 4: %+v", len(got), got)
	}
	if got[0].Name != "BenchmarkQEQueryWarm" || got[0].AllocsOp != 0 || !got[0].hasAlloc {
		t.Fatalf("result 0: %+v", got[0])
	}
	if got[1].Name != "BenchmarkQEBatchWarm" || got[1].NsOp != 15819 || got[1].AllocsOp != 2 {
		t.Fatalf("result 1: %+v", got[1])
	}
	if got[2].Name != "BenchmarkQERowBuild" || got[2].hasAlloc {
		t.Fatalf("result 2 should lack alloc columns: %+v", got[2])
	}
	if got[3].Name != "BenchmarkDistancesOnly" || got[3].NsOp != 137928 || got[3].AllocsOp != 3 || !got[3].hasAlloc {
		t.Fatalf("result 3 (metrics of its own before B/op): %+v", got[3])
	}
}

// TestParseBenchSplitEvents covers the real -json framing: the testing
// package writes the benchmark name and its measurements separately, so
// they arrive as two output events that must be stitched back together.
func TestParseBenchSplitEvents(t *testing.T) {
	in := `{"Action":"output","Output":"BenchmarkQEQueryWarm\n"}` + "\n" +
		`{"Action":"output","Output":"BenchmarkQEQueryWarm \t"}` + "\n" +
		`{"Action":"output","Output":"     100\t       136.1 ns/op\t       0 B/op\t       0 allocs/op\n"}` + "\n"
	got, err := parseBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Name != "BenchmarkQEQueryWarm" || got[0].NsOp != 136.1 || !got[0].hasAlloc {
		t.Fatalf("split-event parse: %+v", got)
	}
}

func TestParseBenchRawOutput(t *testing.T) {
	in := "goos: linux\nBenchmarkX-8   100   50.0 ns/op   8 B/op   1 allocs/op\nPASS\n"
	got, err := parseBench(strings.NewReader(in))
	if err != nil || len(got) != 1 || got[0].Name != "BenchmarkX" || got[0].AllocsOp != 1 {
		t.Fatalf("raw parse: %+v, %v", got, err)
	}
}

func testBaseline() baselineFile {
	return baselineFile{Benchmarks: map[string]benchBaseline{
		"BenchmarkQEQueryWarm": {NsOp: 110, AllocsOp: 0},
		"BenchmarkQEBatchWarm": {NsOp: 16000, AllocsOp: 2},
	}}
}

func results(warmAllocs, batchAllocs, warmNs float64) []benchResult {
	return []benchResult{
		{Name: "BenchmarkQEQueryWarm", NsOp: warmNs, AllocsOp: warmAllocs, hasAlloc: true},
		{Name: "BenchmarkQEBatchWarm", NsOp: 15000, AllocsOp: batchAllocs, hasAlloc: true},
		{Name: "BenchmarkQEBatch", NsOp: 600000, AllocsOp: 480, hasAlloc: true}, // untracked
	}
}

func TestGateGreen(t *testing.T) {
	rep := gate(results(0, 2, 111), testBaseline(), 0.10, 0.10)
	if len(rep.Failures) != 0 {
		t.Fatalf("failures: %v", rep.Failures)
	}
	if !strings.Contains(rep.Table, "untracked") {
		t.Fatalf("untracked benchmark not reported:\n%s", rep.Table)
	}
}

func TestGateZeroAllocsIsExact(t *testing.T) {
	// 0-baseline tolerates no allocations at all — a 10% slack on zero
	// would tolerate anything.
	rep := gate(results(1, 2, 110), testBaseline(), 0.10, -1)
	if len(rep.Failures) != 1 || !strings.Contains(rep.Failures[0], "exactly 0") {
		t.Fatalf("failures: %v", rep.Failures)
	}
}

func TestGateAllocRegression(t *testing.T) {
	rep := gate(results(0, 3, 110), testBaseline(), 0.10, -1) // 3 > 2*1.1
	if len(rep.Failures) != 1 || !strings.Contains(rep.Failures[0], "allocs/op") {
		t.Fatalf("failures: %v", rep.Failures)
	}
	// Within threshold: 2 allocs at baseline 2 passes.
	if rep := gate(results(0, 2, 110), testBaseline(), 0.10, -1); len(rep.Failures) != 0 {
		t.Fatalf("within-threshold failures: %v", rep.Failures)
	}
}

func TestGateNsRegressionAndDisable(t *testing.T) {
	slow := results(0, 2, 200) // 200 > 110*1.1
	if rep := gate(slow, testBaseline(), 0.10, 0.10); len(rep.Failures) != 1 ||
		!strings.Contains(rep.Failures[0], "ns/op") {
		t.Fatalf("ns gate: %v", gate(slow, testBaseline(), 0.10, 0.10).Failures)
	}
	if rep := gate(slow, testBaseline(), 0.10, -1); len(rep.Failures) != 0 {
		t.Fatalf("disabled ns gate still fails: %v", rep.Failures)
	}
}

func TestGateMissingBenchmarkFails(t *testing.T) {
	rep := gate(results(0, 2, 110)[:1], testBaseline(), 0.10, -1)
	if len(rep.Failures) != 1 || !strings.Contains(rep.Failures[0], "missing") {
		t.Fatalf("failures: %v", rep.Failures)
	}
}

func TestUpdateBaseline(t *testing.T) {
	base := testBaseline()
	updateBaseline(&base, results(0, 2, 120), false)
	if got := base.Benchmarks["BenchmarkQEQueryWarm"].NsOp; got != 120 {
		t.Fatalf("tracked entry not refreshed: %v", got)
	}
	if _, ok := base.Benchmarks["BenchmarkQEBatch"]; ok {
		t.Fatal("untracked entry added without -all")
	}
	updateBaseline(&base, results(0, 2, 120), true)
	if _, ok := base.Benchmarks["BenchmarkQEBatch"]; !ok {
		t.Fatal("-all did not track new benchmark")
	}
}
