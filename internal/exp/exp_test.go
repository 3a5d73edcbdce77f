package exp

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/bc"
	"repro/internal/datasets"
	"repro/internal/gen"
	"repro/internal/hetero"
)

// TestSimBCMatchesSequential: the simulated platform schedules the
// sources, it does not change the scores.
func TestSimBCMatchesSequential(t *testing.T) {
	cfg := gen.Config{MaxWeight: 5}
	rng := gen.NewRNG(22)
	g := gen.GNM(50, 110, cfg, rng)
	seq := bc.Parallel(g, 1)
	sim, sched := SimBC(g, []*hetero.Device{hetero.MulticoreCPU(), hetero.TeslaK40c()})
	if sched.Makespan <= 0 {
		t.Fatal("no virtual time")
	}
	for v := range seq.Scores {
		if a, b := seq.Scores[v], sim.Scores[v]; math.Abs(a-b) > 1e-9*(1+math.Abs(a)+math.Abs(b)) {
			t.Fatalf("sim BC differs at %d: %v vs %v", v, b, a)
		}
	}
}

func TestAnalyzeStructure(t *testing.T) {
	cfg := gen.Config{MaxWeight: 5}
	rng := gen.NewRNG(3)
	base := gen.GNM(40, 70, cfg, rng)
	g := gen.Subdivide(base, 0.8, 3, cfg, rng)
	s := AnalyzeStructure(g)
	if s.V != g.NumVertices() || s.E != g.NumEdges() {
		t.Fatal("sizes wrong")
	}
	if s.RemovedPct <= 20 {
		t.Fatalf("heavily subdivided graph should remove >20%%, got %.1f", s.RemovedPct)
	}
	if s.OursEntries > s.MaxEntries {
		t.Fatalf("ours %d > max %d", s.OursEntries, s.MaxEntries)
	}
	if s.ReducedEntries > s.OursEntries {
		t.Fatalf("reduced accounting should not exceed the paper model")
	}
	if s.LargestPct <= 0 || s.LargestPct > 100 {
		t.Fatalf("largest pct %v", s.LargestPct)
	}
}

func TestRunTable1AndWriter(t *testing.T) {
	rows := RunTable1(0.01, 1)
	if len(rows) != len(datasets.Table1) {
		t.Fatalf("rows %d", len(rows))
	}
	var buf bytes.Buffer
	WriteTable1(&buf, rows, 0.01)
	out := buf.String()
	for _, name := range datasets.Names() {
		if !strings.Contains(out, name) {
			t.Fatalf("table missing %s", name)
		}
	}
}

func TestAPSPComparisonPicksBaselines(t *testing.T) {
	specs := []datasets.Spec{}
	for _, n := range []string{"as-22july06", "Planar_1"} {
		s, err := datasets.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	rows := RunAPSPComparison(specs, 0.01, 1, 1)
	if len(rows) != 2 {
		t.Fatalf("rows %d", len(rows))
	}
	if rows[0].Baseline != "banerjee" || rows[1].Baseline != "djidjev" {
		t.Fatalf("baseline selection wrong: %s / %s", rows[0].Baseline, rows[1].Baseline)
	}
	for _, r := range rows {
		if r.OursSec <= 0 || r.BaseSec <= 0 || r.OursMTEPS <= 0 {
			t.Fatalf("degenerate measurement: %+v", r)
		}
	}
	var b1, b2 bytes.Buffer
	WriteFig2(&b1, rows, 0.01)
	WriteFig3(&b2, rows, 0.01)
	if !strings.Contains(b1.String(), "average speedup") || !strings.Contains(b2.String(), "MTEPS") {
		t.Fatal("figure writers incomplete")
	}
}

func TestRunMCBAndWriters(t *testing.T) {
	specs := MCBSpecs()[:2]
	rows, err := RunMCB(specs, 0.005, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows %d", len(rows))
	}
	for _, r := range rows {
		if len(r.SimWith) != 4 || len(r.SimWithout) != 4 {
			t.Fatalf("platform map incomplete: %+v", r)
		}
		if r.Weight <= 0 || r.Dim <= 0 {
			t.Fatalf("degenerate MCB row: %+v", r)
		}
		for p, w := range r.SimWith {
			if w <= 0 || r.SimWithout[p] <= 0 {
				t.Fatalf("platform %v has no time", p)
			}
			if r.SimWithout[p] < w*0.8 {
				t.Fatalf("without-ear should not be much faster than with-ear")
			}
		}
	}
	var buf bytes.Buffer
	WriteTable2(&buf, rows, 0.005)
	WriteFig5(&buf, rows, 0.005)
	WriteFig6(&buf, rows, 0.005)
	WritePhases(&buf, rows, 0.005)
	out := buf.String()
	for _, want := range []string{"Table 2", "Figure 5", "Figure 6", "phase share"} {
		if !strings.Contains(out, want) {
			t.Fatalf("writer output missing %q", want)
		}
	}
}

func TestMTEPS(t *testing.T) {
	if mteps(10, 20, 0) != 0 {
		t.Fatal("zero time should give zero MTEPS")
	}
	if got := mteps(1000, 2000, 2); got != 1 {
		t.Fatalf("mteps = %v, want 1", got)
	}
}

func TestRunScaling(t *testing.T) {
	spec, err := datasets.ByName("as-22july06")
	if err != nil {
		t.Fatal(err)
	}
	rows := RunScaling(spec, []float64{0.004, 0.008}, 1, 1)
	if len(rows) != 2 {
		t.Fatalf("rows %d", len(rows))
	}
	if rows[1].V <= rows[0].V {
		t.Fatal("scale did not grow the graph")
	}
	for _, r := range rows {
		if r.OursSec <= 0 || r.BaseSec <= 0 || r.Speedup <= 0 {
			t.Fatalf("degenerate row %+v", r)
		}
	}
	var buf bytes.Buffer
	WriteScaling(&buf, spec.Name, rows)
	if !strings.Contains(buf.String(), "Scaling study") {
		t.Fatal("writer output wrong")
	}
}

func TestCSVWriters(t *testing.T) {
	t1 := RunTable1(0.005, 1)
	var buf bytes.Buffer
	if err := WriteTable1CSV(&buf, t1); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 16 {
		t.Fatalf("table1 csv lines %d", lines)
	}
	specs := []datasets.Spec{datasets.Table1[3]}
	ap := RunAPSPComparison(specs, 0.005, 1, 1)
	buf.Reset()
	if err := WriteAPSPCSV(&buf, ap); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "banerjee") {
		t.Fatal("apsp csv missing baseline")
	}
	mc, err := RunMCB(datasets.Table1[:1], 0.004, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := WriteMCBCSV(&buf, mc); err != nil {
		t.Fatal(err)
	}
	// header + 4 platforms
	if lines := strings.Count(buf.String(), "\n"); lines != 5 {
		t.Fatalf("mcb csv lines %d", lines)
	}
}

func TestRunBCWriter(t *testing.T) {
	rows := RunBC(datasets.Table1[:1], 0.004, 1)
	if len(rows) != 1 || len(rows[0].Sim) != 4 {
		t.Fatalf("bc rows wrong: %+v", rows)
	}
	var buf bytes.Buffer
	WriteBC(&buf, rows, 0.004)
	if !strings.Contains(buf.String(), "betweenness") {
		t.Fatal("bc writer wrong")
	}
}
