package verify

import (
	"testing"

	"repro/internal/apsp"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mcb"
)

func TestOracleSample(t *testing.T) {
	cfg := gen.Config{MaxWeight: 5}
	rng := gen.NewRNG(3)
	g := gen.Subdivide(gen.GNM(20, 35, cfg, rng), 0.5, 2, cfg, rng)
	o := apsp.NewOracle(g)
	if err := OracleSample(g, o, 10); err != nil {
		t.Fatal(err)
	}
}

func TestWalk(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 2)
	b.AddEdge(1, 2, 3)
	b.AddEdge(2, 3, 4)
	g := b.Build()
	if err := Walk(g, []int32{0, 1, 2, 3}, 9); err != nil {
		t.Fatal(err)
	}
	if err := Walk(g, []int32{0, 2}, 5); err == nil {
		t.Fatal("non-edge hop accepted")
	}
	if err := Walk(g, []int32{0, 1}, 99); err == nil {
		t.Fatal("wrong weight accepted")
	}
	if err := Walk(g, nil, 0); err == nil {
		t.Fatal("empty walk accepted")
	}
}

func TestCycleBasis(t *testing.T) {
	cfg := gen.Config{MaxWeight: 7}
	rng := gen.NewRNG(4)
	g := gen.GNM(15, 25, cfg, rng)
	res := mcb.Compute(g, mcb.Options{UseEar: true})
	if err := CycleBasis(g, res); err != nil {
		t.Fatal(err)
	}
	// tamper: drop a cycle
	broken := *res
	broken.Cycles = broken.Cycles[:len(broken.Cycles)-1]
	if err := CycleBasis(g, &broken); err == nil {
		t.Fatal("short basis accepted")
	}
	// tamper: duplicate a cycle (dependent)
	dup := *res
	dup.Cycles = append(append([]mcb.Cycle(nil), res.Cycles[:len(res.Cycles)-1]...), res.Cycles[0])
	if err := CycleBasis(g, &dup); err == nil {
		t.Fatal("dependent basis accepted")
	}
	// tamper: break a weight
	wrongW := *res
	wrongW.Cycles = append([]mcb.Cycle(nil), res.Cycles...)
	wrongW.Cycles[0].Weight += 1
	if err := CycleBasis(g, &wrongW); err == nil {
		t.Fatal("wrong cycle weight accepted")
	}
}
