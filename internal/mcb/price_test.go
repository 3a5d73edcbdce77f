package mcb

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// fingerprintGraphs are the two fixed inputs of TestVirtualClockFingerprint:
// four cyclic blocks of subdivided G(n,m) chained at cut vertices (so the
// per-component sums are exercised), and a triangulated grid with more
// roots (102) than the multicore model has batch slots, so the GPU takes
// part in every heterogeneous phase.
func fingerprintGraphs() map[string]*graph.Graph {
	cfg := gen.Config{MaxWeight: 9}
	rng := gen.NewRNG(5)
	chain := gen.ChainBlocks([]*graph.Graph{
		gen.GNM(40, 62, cfg, rng), gen.GNM(30, 47, cfg, rng), gen.Ring(5, cfg, rng), gen.GNM(50, 74, cfg, rng),
	}, cfg, rng)
	return map[string]*graph.Graph{
		"subdiv-gnm": gen.Subdivide(chain, 0.3, 2, cfg, rng),
		"trigrid":    gen.TriangulatedGrid(16, 16, cfg, gen.NewRNG(11)),
	}
}

// virtualClockFingerprint holds Float64bits of Tree, Label, Search, Update
// as the commit before "record, then price" computed them inside the phase
// loop (Options.Platform per solve, identical at workers 1 and 3). The
// virtual clock counts operations, not nanoseconds: no refactor may move a
// bit of it.
var virtualClockFingerprint = []struct {
	graph       string
	ear, signed bool
	platform    Platform
	bits        [4]uint64
}{
	{"subdiv-gnm", true, false, Sequential, [4]uint64{0x3eef146d4a5b42f1, 0x3f168801c1a11f9e, 0x3ee9454b63aba102, 0x3ea7b07e6b1d8de4}},
	{"subdiv-gnm", true, false, Multicore, [4]uint64{0x3f10adcd2d44dca9, 0x3f37a99fa11a975a, 0x3ecf969e3c968944, 0x3eb88963c1707836}},
	{"subdiv-gnm", true, false, GPU, [4]uint64{0x3f4c3c042084683e, 0x3f46447a8353dcf9, 0x3f45ff9949417a96, 0x3f44a59036b3343a}},
	{"subdiv-gnm", true, false, Heterogeneous, [4]uint64{0x3f10adcd2d44dca9, 0x3f37a99fa11a975a, 0x3f45fca71fd3784d, 0x3eb88963c1707836}},
	{"subdiv-gnm", true, true, Sequential, [4]uint64{0x0, 0x0, 0x3f3b76d3f1da2276, 0x3ea7b07e6b1d8de4}},
	{"subdiv-gnm", true, true, Multicore, [4]uint64{0x0, 0x0, 0x3f212a447728558a, 0x3eb88963c1707836}},
	{"subdiv-gnm", true, true, GPU, [4]uint64{0x0, 0x0, 0x3f08699ff36c9068, 0x3f44a59036b3343a}},
	{"subdiv-gnm", true, true, Heterogeneous, [4]uint64{0x0, 0x0, 0x3f0202610350169a, 0x3eb88963c1707836}},
	{"subdiv-gnm", false, false, Sequential, [4]uint64{0x3f0030a4b88699b8, 0x3f31a213e691c4e4, 0x3ee6f15e26a6ddd0, 0x3ea7b07e6b1d8de4}},
	{"subdiv-gnm", false, false, Multicore, [4]uint64{0x3f214d2f5dbb9cf9, 0x3f526b723ee1bd1f, 0x3eccadb5b0509544, 0x3eb88963c1707836}},
	{"subdiv-gnm", false, false, GPU, [4]uint64{0x3f57d021c5b5a2c0, 0x3f46ef2642c7f222, 0x3f45fe906e09ea40, 0x3f44a59036b3343a}},
	{"subdiv-gnm", false, false, Heterogeneous, [4]uint64{0x3f214d2f5dbb9cf9, 0x3f526b723ee1bd1f, 0x3f45fbe3bd0f3396, 0x3eb88963c1707836}},
	{"subdiv-gnm", false, true, Sequential, [4]uint64{0x0, 0x0, 0x3f4a23c2a7dacff0, 0x3ea7b07e6b1d8de4}},
	{"subdiv-gnm", false, true, Multicore, [4]uint64{0x0, 0x0, 0x3f305659a8e8c1f6, 0x3eb88963c1707836}},
	{"subdiv-gnm", false, true, GPU, [4]uint64{0x0, 0x0, 0x3f173c3b3fdef1b8, 0x3f44a59036b3343a}},
	{"subdiv-gnm", false, true, Heterogeneous, [4]uint64{0x0, 0x0, 0x3f11240a2287170a, 0x3eb88963c1707836}},
	{"trigrid", true, false, Sequential, [4]uint64{0x3f5787b10ed631ac, 0x3fbdf6a93f290aa8, 0x3f5abdb0fb0a21f5, 0x3f4a7bac48c8c6c3}},
	{"trigrid", true, false, Multicore, [4]uint64{0x3f4711947cfa26a2, 0x3fad604189374bfd, 0x3f40b68e9ce65531, 0x3f3376d54973108e}},
	{"trigrid", true, false, GPU, [4]uint64{0x3f94315e2a3b204b, 0x3f91ecd4aa10e01f, 0x3f732cc006102749, 0x3f7ab5ca51c849b0}},
	{"trigrid", true, false, Heterogeneous, [4]uint64{0x3f720a5de503fffe, 0x3f9d604189374bfd, 0x3f72fadf6018791f, 0x3f6edd120bbd9ae3}},
	{"trigrid", true, true, Sequential, [4]uint64{0x0, 0x0, 0x3fc3c0e09adfeab6, 0x3f4a7bac48c8c6c3}},
	{"trigrid", true, true, Multicore, [4]uint64{0x0, 0x0, 0x3fa8b118c197e560, 0x3f3376d54973108e}},
	{"trigrid", true, true, GPU, [4]uint64{0x0, 0x0, 0x3f918f0089aa97bf, 0x3f7ab5ca51c849b0}},
	{"trigrid", true, true, Heterogeneous, [4]uint64{0x0, 0x0, 0x3f89e7f866649cc1, 0x3f6edd120bbd9ae3}},
	{"trigrid", false, false, Sequential, [4]uint64{0x3f57903f7dc450f3, 0x3fbe14bdfd263106, 0x3f5a665dad045a7f, 0x3f4a7bac48c8c6c3}},
	{"trigrid", false, false, Multicore, [4]uint64{0x3f4719f7f8ca8199, 0x3fad7dbf487fcbe4, 0x3f407ffa8c22b88f, 0x3f3376d54973108e}},
	{"trigrid", false, false, GPU, [4]uint64{0x3f944e4359f1e3de, 0x3f91fa333764f14f, 0x3f732a530b01c54b, 0x3f7ab5ca51c849b0}},
	{"trigrid", false, false, Heterogeneous, [4]uint64{0x3f7214e75f66df7a, 0x3f9d7dbf487fcbe4, 0x3f72f915465d99c3, 0x3f6edd120bbd9ae3}},
	{"trigrid", false, true, Sequential, [4]uint64{0x0, 0x0, 0x3fc3912be1db26d6, 0x3f4a7bac48c8c6c3}},
	{"trigrid", false, true, Multicore, [4]uint64{0x0, 0x0, 0x3fa87576da51f08f, 0x3f3376d54973108e}},
	{"trigrid", false, true, GPU, [4]uint64{0x0, 0x0, 0x3f916498c8c2cd2e, 0x3f7ab5ca51c849b0}},
	{"trigrid", false, true, Heterogeneous, [4]uint64{0x0, 0x0, 0x3f89a967b6e4a87a, 0x3f6edd120bbd9ae3}},
}

func TestVirtualClockFingerprint(t *testing.T) {
	graphs := fingerprintGraphs()
	type solveKey struct {
		graph       string
		ear, signed bool
		workers     int
	}
	solved := map[solveKey]*Result{}
	for _, want := range virtualClockFingerprint {
		for _, workers := range []int{1, 3} {
			key := solveKey{want.graph, want.ear, want.signed, workers}
			res := solved[key]
			if res == nil {
				res = Compute(graphs[want.graph], Options{UseEar: want.ear, SignedSearch: want.signed, Workers: workers})
				solved[key] = res
			}
			ph := res.Price(want.platform)
			got := [4]uint64{math.Float64bits(ph.Tree), math.Float64bits(ph.Label), math.Float64bits(ph.Search), math.Float64bits(ph.Update)}
			if got != want.bits {
				t.Errorf("%s ear=%v signed=%v %v workers=%d: phases %#x, want %#x",
					want.graph, want.ear, want.signed, want.platform, workers, got, want.bits)
			}
		}
	}
}

// TestPriceIsPure: pricing reads the work log and nothing else, so one
// solve priced four ways equals four solves with Options.Platform set, and
// pricing the same Result again returns the same bits.
func TestPriceIsPure(t *testing.T) {
	g := fingerprintGraphs()["subdiv-gnm"]
	one := Compute(g, Options{UseEar: true, Workers: 2})
	for _, p := range []Platform{Sequential, Multicore, GPU, Heterogeneous} {
		own := Compute(g, Options{UseEar: true, Workers: 2, Platform: p})
		if got := one.Price(p); got != own.Phase {
			t.Errorf("%v: priced afterwards %+v, solved with Options.Platform %+v", p, got, own.Phase)
		}
		if own.SimSeconds != own.Phase.Total() {
			t.Errorf("%v: SimSeconds %v != Phase.Total() %v", p, own.SimSeconds, own.Phase.Total())
		}
		if a, b := one.Price(p), one.Price(p); a != b {
			t.Errorf("%v: Price not repeatable: %+v then %+v", p, a, b)
		}
	}
}
