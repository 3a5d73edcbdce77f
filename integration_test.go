package repro

// Integration tests: the full pipelines end-to-end on the named dataset
// stand-ins, cross-validated between independent implementations — the
// closest thing to running the paper's evaluation inside `go test`.

import (
	"testing"

	"repro/internal/apsp"
	"repro/internal/bc"
	"repro/internal/datasets"
	"repro/internal/exp"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/hetero"
	"repro/internal/mcb"
	"repro/internal/verify"
)

const integrationScale = 0.008

func integrationGraph(t *testing.T, name string) *graph.Graph {
	t.Helper()
	spec, err := datasets.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return spec.Generate(integrationScale, 5)
}

// TestIntegrationAPSPAllDatasets builds the oracle on every Table 1
// dataset and certifies it against reference Bellman–Ford.
func TestIntegrationAPSPAllDatasets(t *testing.T) {
	for _, name := range datasets.Names() {
		g := integrationGraph(t, name)
		o := apsp.NewOracleParallel(g, 2)
		if err := verify.OracleSample(g, o, 5); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// paths agree with distances on a sample
		for s := int32(0); s < 5 && int(s) < g.NumVertices(); s++ {
			for v := int32(0); v < int32(g.NumVertices()); v += 7 {
				d := o.Query(s, v)
				if d >= apsp.Inf {
					continue
				}
				if err := verify.Walk(g, o.Path(s, v), d); err != nil {
					t.Fatalf("%s: path (%d,%d): %v", name, s, v, err)
				}
			}
		}
	}
}

// TestIntegrationThreeAPSPImplementationsAgree cross-checks ours, the
// Banerjee baseline and the Djidjev baseline pairwise on one planar and
// one general dataset.
func TestIntegrationThreeAPSPImplementationsAgree(t *testing.T) {
	for _, name := range []string{"as-22july06", "Planar_2"} {
		g := integrationGraph(t, name)
		ours := apsp.NewOracle(g)
		ban := apsp.NewBanerjee(g, 1)
		dji := apsp.NewDjidjev(g, 6, 1)
		n := int32(g.NumVertices())
		for u := int32(0); u < n; u += 5 {
			for v := int32(0); v < n; v += 3 {
				a, b, c := ours.Query(u, v), ban.Query(u, v), dji.Query(u, v)
				if a != b || b != c {
					t.Fatalf("%s: d(%d,%d): ours %v, banerjee %v, djidjev %v", name, u, v, a, b, c)
				}
			}
		}
	}
}

// TestIntegrationMCBAllMethodsAgree runs De Pina (labelled-tree and
// signed-graph searches, with and without ear reduction) plus Horton on a
// dataset and demands identical basis weights and valid certificates.
func TestIntegrationMCBAllMethodsAgree(t *testing.T) {
	g := integrationGraph(t, "c-50")
	variants := map[string]*mcb.Result{
		"ear+labels":  mcb.Compute(g, mcb.Options{UseEar: true, Seed: 2}),
		"flat+labels": mcb.Compute(g, mcb.Options{UseEar: false, Seed: 3}),
		"ear+signed":  mcb.Compute(g, mcb.Options{UseEar: true, SignedSearch: true, Seed: 4}),
		"horton":      mcb.HortonMCB(g, true, 5),
	}
	var want graph.Weight
	first := true
	for name, res := range variants {
		if err := verify.CycleBasis(g, res); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if first {
			want = res.TotalWeight
			first = false
		} else if res.TotalWeight != want {
			t.Fatalf("%s: weight %v, others %v", name, res.TotalWeight, want)
		}
	}
}

// TestIntegrationBCImplementationsAgree checks flat, decomposed, parallel
// and simulated BC on a blocky dataset.
func TestIntegrationBCImplementationsAgree(t *testing.T) {
	g := integrationGraph(t, "cond_mat_2003")
	seq := bc.Parallel(g, 1)
	dec := bc.Decomposed(g, 2)
	sim, _ := bc.Sim(g, []*hetero.Device{hetero.TeslaK40c()})
	for v := range seq.Scores {
		for name, other := range map[string]float64{"decomposed": dec.Scores[v], "sim": sim.Scores[v]} {
			diff := seq.Scores[v] - other
			if diff < 0 {
				diff = -diff
			}
			if diff > 1e-6*(1+seq.Scores[v]) {
				t.Fatalf("%s BC differs at %d: %v vs %v", name, v, other, seq.Scores[v])
			}
		}
	}
}

// TestIntegrationHarnessSmoke runs every experiment the harness offers at
// a tiny scale, ensuring the full evaluation path stays runnable.
func TestIntegrationHarnessSmoke(t *testing.T) {
	if rows := exp.RunTable1(0.005, 1); len(rows) != 15 {
		t.Fatal("table1 rows")
	}
	specs := []datasets.Spec{datasets.Table1[3], datasets.Table1[10]}
	if rows := exp.RunAPSPComparison(specs, 0.005, 1, 1); len(rows) != 2 {
		t.Fatal("fig2 rows")
	}
	mcbRows, err := exp.RunMCB(datasets.Table1[:2], 0.004, 1, 1)
	if err != nil || len(mcbRows) != 2 {
		t.Fatalf("table2: %v", err)
	}
	if rows := exp.RunBC(datasets.Table1[:2], 0.004, 1); len(rows) != 2 {
		t.Fatal("bc rows")
	}
}

// TestIntegrationDeterminism re-runs the MCB pipeline and expects
// bit-identical cycles, and relabels the graph expecting equal weights.
func TestIntegrationDeterminism(t *testing.T) {
	g := integrationGraph(t, "OPF_3754")
	a := mcb.Compute(g, mcb.Options{UseEar: true, Seed: 9})
	b := mcb.Compute(g, mcb.Options{UseEar: true, Seed: 9})
	if a.TotalWeight != b.TotalWeight || len(a.Cycles) != len(b.Cycles) {
		t.Fatal("same seed produced different results")
	}
	for i := range a.Cycles {
		if len(a.Cycles[i].Edges) != len(b.Cycles[i].Edges) {
			t.Fatal("cycle structure differs between identical runs")
		}
	}
	rng := gen.NewRNG(77)
	h, _ := gen.Relabel(g, rng)
	c := mcb.Compute(h, mcb.Options{UseEar: true, Seed: 9})
	if c.TotalWeight != a.TotalWeight {
		t.Fatalf("relabelled MCB weight %v != %v", c.TotalWeight, a.TotalWeight)
	}
}
