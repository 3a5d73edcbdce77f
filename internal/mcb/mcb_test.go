package mcb

import (
	"sort"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/ds"
	"repro/internal/gen"
	"repro/internal/graph"
)

// bruteForceMCBWeightExact computes the exact minimum weight of a cycle
// space basis by matroid greedy over ALL 2^f elements of the cycle space
// (feasible for f ≤ ~16): sort every GF(2) combination of fundamental
// cycles by the weight of its edge set, then greedily keep independent
// elements (pivot-map Gaussian elimination over the combination masks). By
// the matroid exchange property this total is the MCB weight.
func bruteForceMCBWeightExact(t *testing.T, g *graph.Graph) graph.Weight {
	t.Helper()
	sp := buildSpanning(g)
	f := sp.dim()
	if f > 16 {
		t.Fatalf("brute force infeasible for f=%d", f)
	}
	if f == 0 {
		return 0
	}
	m := g.NumEdges()
	fund := make([]*bitvec.Vector, f)
	for i := 0; i < f; i++ {
		v := bitvec.New(m)
		for _, eid := range sp.fundamentalCycle(sp.nontree[i]) {
			v.Flip(int(eid))
		}
		fund[i] = v
	}
	type elem struct {
		mask uint32
		w    graph.Weight
	}
	elems := make([]elem, 0, 1<<f)
	for mask := uint32(1); mask < 1<<f; mask++ {
		v := bitvec.New(m)
		for i := 0; i < f; i++ {
			if mask>>i&1 == 1 {
				v.Xor(fund[i])
			}
		}
		var w graph.Weight
		for _, eid := range v.Ones() {
			w += g.Edge(int32(eid)).W
		}
		elems = append(elems, elem{mask: mask, w: w})
	}
	sort.SliceStable(elems, func(i, j int) bool { return elems[i].w < elems[j].w })
	pivot := make([]uint32, f) // pivot[i] = row with lowest set bit i
	var total graph.Weight
	rank := 0
	for _, e := range elems {
		x := e.mask
		for x != 0 {
			low := x & -x
			bit := trailing(low)
			if pivot[bit] == 0 {
				pivot[bit] = x
				total += e.w
				rank++
				break
			}
			x ^= pivot[bit]
		}
		if rank == f {
			break
		}
	}
	return total
}

func trailing(x uint32) int {
	n := 0
	for x&1 == 0 {
		x >>= 1
		n++
	}
	return n
}

// verifyBasis checks structural validity: correct cardinality, every
// element is a cycle (even degree at every vertex, at least one edge), and
// the set is linearly independent over the full edge space.
func verifyBasis(t *testing.T, g *graph.Graph, res *Result, label string) {
	t.Helper()
	wantDim := Dim(g)
	if res.Dim != wantDim || len(res.Cycles) != wantDim {
		t.Fatalf("%s: dim %d, %d cycles, want %d", label, res.Dim, len(res.Cycles), wantDim)
	}
	m := g.NumEdges()
	var vecs []*bitvec.Vector
	var total graph.Weight
	for ci, c := range res.Cycles {
		if len(c.Edges) == 0 {
			t.Fatalf("%s: cycle %d empty", label, ci)
		}
		deg := make(map[int32]int)
		var w graph.Weight
		v := bitvec.New(m)
		for _, eid := range c.Edges {
			e := g.Edge(eid)
			if e.U == e.V {
				// self-loop contributes even degree; still a valid cycle
			} else {
				deg[e.U]++
				deg[e.V]++
			}
			w += e.W
			if v.Get(int(eid)) {
				t.Fatalf("%s: cycle %d repeats edge %d", label, ci, eid)
			}
			v.Set(int(eid), true)
		}
		for vert, d := range deg {
			if d%2 != 0 {
				t.Fatalf("%s: cycle %d has odd degree %d at vertex %d", label, ci, d, vert)
			}
		}
		if w != c.Weight {
			t.Fatalf("%s: cycle %d weight %v, recomputed %v", label, ci, c.Weight, w)
		}
		total += w
		vecs = append(vecs, v)
	}
	if total != res.TotalWeight {
		t.Fatalf("%s: total %v, sum %v", label, res.TotalWeight, total)
	}
	if rank := bitvec.Rank(vecs); rank != wantDim {
		t.Fatalf("%s: basis rank %d, want %d", label, rank, wantDim)
	}
	if res.Fallbacks != 0 {
		t.Fatalf("%s: %d fallback phases (non-unique shortest paths?)", label, res.Fallbacks)
	}
}

func smallGraphs() map[string]*graph.Graph {
	cfg := gen.Config{MaxWeight: 9}
	rng := gen.NewRNG(99)
	gs := map[string]*graph.Graph{
		"triangle":  gen.Ring(3, cfg, rng),
		"ring8":     gen.Ring(8, cfg, rng),
		"k4":        gen.Complete(4, cfg, rng),
		"k5":        gen.Complete(5, cfg, rng),
		"grid33":    gen.Grid(3, 3, cfg, rng),
		"gnm-small": gen.GNM(10, 14, cfg, rng),
		"subdiv":    gen.Subdivide(gen.Complete(4, cfg, rng), 0.8, 2, cfg, rng),
		"two-blocks": gen.ChainBlocks([]*graph.Graph{
			gen.Ring(4, cfg, rng), gen.Ring(5, cfg, rng),
		}, cfg, rng),
	}
	// multigraph with parallel edges and a self-loop
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 2)
	b.AddEdge(0, 1, 3) // parallel
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 3, 1)
	b.AddEdge(3, 0, 4)
	b.AddEdge(2, 2, 5) // self-loop
	gs["multi"] = b.Build()
	return gs
}

func TestDePinaMatchesBruteForce(t *testing.T) {
	for name, g := range smallGraphs() {
		want := bruteForceMCBWeightExact(t, g)
		for _, useEar := range []bool{false, true} {
			res := Compute(g, Options{UseEar: useEar})
			verifyBasis(t, g, res, name)
			if res.TotalWeight != want {
				t.Fatalf("%s (ear=%v): MCB weight %v, want %v", name, useEar, res.TotalWeight, want)
			}
		}
	}
}

func TestHortonMatchesBruteForce(t *testing.T) {
	for name, g := range smallGraphs() {
		want := bruteForceMCBWeightExact(t, g)
		for _, useEar := range []bool{false, true} {
			res := HortonMCB(g, useEar, 0)
			verifyBasis(t, g, res, "horton/"+name)
			if res.TotalWeight != want {
				t.Fatalf("horton %s (ear=%v): weight %v, want %v", name, useEar, res.TotalWeight, want)
			}
		}
	}
}

func TestEarAndFlatAgreeMediumGraphs(t *testing.T) {
	cfg := gen.Config{MaxWeight: 12}
	for seed := uint64(1); seed <= 8; seed++ {
		rng := gen.NewRNG(seed)
		n := 15 + rng.Intn(20)
		g := gen.GNM(n, n+5+rng.Intn(15), cfg, rng)
		if rng.Float64() < 0.7 {
			g = gen.Subdivide(g, 0.6, 3, cfg, rng)
		}
		flat := Compute(g, Options{UseEar: false, Seed: seed})
		withEar := Compute(g, Options{UseEar: true, Seed: seed * 31})
		verifyBasis(t, g, flat, "flat")
		verifyBasis(t, g, withEar, "ear")
		if flat.TotalWeight != withEar.TotalWeight {
			t.Fatalf("seed %d: flat weight %v != ear weight %v", seed, flat.TotalWeight, withEar.TotalWeight)
		}
		horton := HortonMCB(g, false, seed)
		if horton.TotalWeight != flat.TotalWeight {
			t.Fatalf("seed %d: horton %v != depina %v", seed, horton.TotalWeight, flat.TotalWeight)
		}
	}
}

// TestLemma31Invariants checks statements 3 and 4 of Lemma 3.1 directly:
// dimension and MCB weight are preserved under ear contraction.
func TestLemma31Invariants(t *testing.T) {
	cfg := gen.Config{MaxWeight: 8}
	for seed := uint64(1); seed <= 10; seed++ {
		rng := gen.NewRNG(seed * 7)
		base := gen.GNM(10, 16, cfg, rng)
		g := gen.Subdivide(base, 0.9, 3, cfg, rng)
		// dim invariance (statement 3)
		red := Compute(g, Options{UseEar: true, Seed: seed})
		flat := Compute(g, Options{UseEar: false, Seed: seed})
		if red.Dim != flat.Dim {
			t.Fatalf("seed %d: dim %d (ear) != %d (flat)", seed, red.Dim, flat.Dim)
		}
		// weight invariance (statement 4)
		if red.TotalWeight != flat.TotalWeight {
			t.Fatalf("seed %d: weight %v (ear) != %v (flat)", seed, red.TotalWeight, flat.TotalWeight)
		}
		if red.NodesRemoved == 0 {
			t.Fatalf("seed %d: subdivided graph should lose vertices in reduction", seed)
		}
	}
}

func TestPlatformsProduceSameBasisWeight(t *testing.T) {
	cfg := gen.Config{MaxWeight: 10}
	rng := gen.NewRNG(123)
	// Large enough that every phase has more work-units than the widest
	// device (the paper's parallel wins assume graph ≫ platform; on tiny
	// graphs launch overheads rightly dominate).
	g := gen.Subdivide(gen.GNM(500, 850, cfg, rng), 0.5, 2, cfg, rng)
	// A platform prices the solve and never steers it, so one basis serves
	// all four (TestPriceIsPure checks that against Options.Platform).
	res := Compute(g, Options{UseEar: true, Workers: 2})
	verifyBasis(t, g, res, "priced")
	var sims []float64
	for _, p := range []Platform{Sequential, Multicore, GPU, Heterogeneous} {
		sims = append(sims, res.Price(p).Total())
		if sims[len(sims)-1] <= 0 {
			t.Fatalf("%v: no simulated time", p)
		}
	}
	// Parallel platforms should be no slower than sequential in sim time.
	if sims[1] >= sims[0] || sims[2] >= sims[0] || sims[3] >= sims[0] {
		t.Fatalf("expected parallel platforms faster: seq=%.4g mc=%.4g gpu=%.4g het=%.4g",
			sims[0], sims[1], sims[2], sims[3])
	}
}

// isFVS reports whether removing fvs leaves g acyclic; a surviving
// self-loop is a cycle.
func isFVS(g *graph.Graph, fvs []int32) bool {
	in := make([]bool, g.NumVertices())
	for _, v := range fvs {
		in[v] = true
	}
	uf := ds.NewUnionFind(g.NumVertices())
	for _, e := range g.Edges() {
		if !in[e.U] && !in[e.V] && !uf.Union(e.U, e.V) {
			return false
		}
	}
	return true
}

func TestFVS(t *testing.T) {
	cfg := gen.Config{MaxWeight: 5}
	for seed := uint64(0); seed < 15; seed++ {
		rng := gen.NewRNG(seed)
		g := gen.GNM(20+rng.Intn(30), 30+rng.Intn(50), cfg, rng)
		fvs := FeedbackVertexSet(g)
		if !isFVS(g, fvs) {
			t.Fatalf("seed %d: invalid FVS", seed)
		}
		if len(fvs) == g.NumVertices() {
			t.Fatalf("seed %d: FVS did not shrink at all", seed)
		}
	}
	// self-loop forces membership
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 2, 1)
	g := b.Build()
	fvs := FeedbackVertexSet(g)
	found := false
	for _, v := range fvs {
		if v == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("FVS must contain the self-loop vertex, got %v", fvs)
	}
}

func TestAllRootsMatchesFVS(t *testing.T) {
	cfg := gen.Config{MaxWeight: 7}
	rng := gen.NewRNG(55)
	g := gen.GNM(18, 30, cfg, rng)
	a := Compute(g, Options{AllRoots: true})
	b := Compute(g, Options{AllRoots: false})
	if a.TotalWeight != b.TotalWeight {
		t.Fatalf("all-roots weight %v != FVS weight %v", a.TotalWeight, b.TotalWeight)
	}
	if a.NumRoots <= b.NumRoots {
		t.Fatalf("all-roots should use more roots: %d vs %d", a.NumRoots, b.NumRoots)
	}
}

func TestPhaseBreakdownConsistency(t *testing.T) {
	cfg := gen.Config{MaxWeight: 6}
	rng := gen.NewRNG(77)
	g := gen.GNM(25, 45, cfg, rng)
	res := Compute(g, Options{UseEar: true, Platform: Sequential})
	sum := res.Phase.Total()
	if res.SimSeconds != sum {
		t.Fatalf("SimSeconds %v != phase sum %v", res.SimSeconds, sum)
	}
	if res.LabelOps == 0 || res.SearchOps == 0 {
		t.Fatalf("expected nonzero phase work: %+v", res)
	}
	// Multi-component inputs: summing per-component totals and per-phase
	// values separately used to disagree in the last bits (7 of these 160
	// runs); the total is defined as the phase sum.
	for seed := uint64(1); seed <= 40; seed++ {
		rng := gen.NewRNG(seed)
		g := gen.Subdivide(gen.GNM(120, 170, cfg, rng), 0.3, 2, cfg, rng)
		for _, p := range []Platform{Sequential, Multicore, GPU, Heterogeneous} {
			res := Compute(g, Options{UseEar: true, Platform: p})
			if res.SimSeconds != res.Phase.Total() {
				t.Errorf("seed %d %v: SimSeconds %v != phase sum %v", seed, p, res.SimSeconds, res.Phase.Total())
			}
		}
	}
}

func TestDisconnectedAndAcyclic(t *testing.T) {
	// Compute and HortonMCB share the per-component driver, so both skip
	// components that cannot hold a cycle and both keep a self-loop.
	both := func(g *graph.Graph) map[string]*Result {
		return map[string]*Result{
			"depina": Compute(g, Options{UseEar: true}),
			"horton": HortonMCB(g, true, 0),
		}
	}
	// forest: empty basis
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(3, 4, 1)
	for name, res := range both(b.Build()) {
		if res.Dim != 0 || len(res.Cycles) != 0 || res.TotalWeight != 0 || res.NodesRemoved != 0 {
			t.Fatalf("%s: forest should have empty MCB and reduce nothing, got %+v", name, res)
		}
	}
	// two disjoint triangles
	b2 := graph.NewBuilder(6)
	b2.AddEdge(0, 1, 1)
	b2.AddEdge(1, 2, 2)
	b2.AddEdge(2, 0, 3)
	b2.AddEdge(3, 4, 1)
	b2.AddEdge(4, 5, 1)
	b2.AddEdge(5, 3, 1)
	g2 := b2.Build()
	for name, res := range both(g2) {
		verifyBasis(t, g2, res, "two-triangles/"+name)
		if res.TotalWeight != 6+3 {
			t.Fatalf("%s: two triangles weight %v, want 9", name, res.TotalWeight)
		}
	}
	// a tree carrying one self-loop, beside an isolated vertex: m < n, and
	// the loop is the whole basis.
	b3 := graph.NewBuilder(4)
	b3.AddEdge(0, 1, 1)
	b3.AddEdge(1, 1, 5)
	b3.AddEdge(1, 2, 2)
	g3 := b3.Build()
	for name, res := range both(g3) {
		verifyBasis(t, g3, res, "tree-with-loop/"+name)
		if res.Dim != 1 || len(res.Cycles) != 1 || res.TotalWeight != 5 {
			t.Fatalf("%s: tree with a self-loop: dim %d, %d cycles, weight %v; want 1, 1, 5",
				name, res.Dim, len(res.Cycles), res.TotalWeight)
		}
	}
}

func TestPureCycleGraph(t *testing.T) {
	// a single ring reduces to one vertex with a self-loop; the basis is
	// the whole ring.
	cfg := gen.Config{MaxWeight: 4}
	rng := gen.NewRNG(5)
	g := gen.Ring(12, cfg, rng)
	res := Compute(g, Options{UseEar: true})
	verifyBasis(t, g, res, "ring")
	if len(res.Cycles) != 1 || len(res.Cycles[0].Edges) != 12 {
		t.Fatalf("ring basis should be the full ring, got %d cycles", len(res.Cycles))
	}
	if res.TotalWeight != g.TotalWeight() {
		t.Fatalf("ring basis weight %v, want %v", res.TotalWeight, g.TotalWeight())
	}
	if res.NodesRemoved != 11 {
		t.Fatalf("ring should remove 11 of 12 vertices, removed %d", res.NodesRemoved)
	}
}

func TestSignedSearchMatchesLabelledTree(t *testing.T) {
	for name, g := range smallGraphs() {
		want := bruteForceMCBWeightExact(t, g)
		for _, useEar := range []bool{false, true} {
			res := Compute(g, Options{UseEar: useEar, SignedSearch: true})
			verifyBasis(t, g, res, "signed/"+name)
			if res.TotalWeight != want {
				t.Fatalf("signed %s (ear=%v): weight %v, want %v", name, useEar, res.TotalWeight, want)
			}
		}
	}
	// medium random graphs: signed vs labelled-tree total weight
	cfg := gen.Config{MaxWeight: 11}
	for seed := uint64(1); seed <= 6; seed++ {
		rng := gen.NewRNG(seed * 13)
		g := gen.Subdivide(gen.GNM(14+rng.Intn(12), 22+rng.Intn(18), cfg, rng), 0.5, 2, cfg, rng)
		a := Compute(g, Options{UseEar: true, SignedSearch: true, Seed: seed})
		b := Compute(g, Options{UseEar: true, SignedSearch: false, Seed: seed})
		verifyBasis(t, g, a, "signed-medium")
		if a.TotalWeight != b.TotalWeight {
			t.Fatalf("seed %d: signed %v != labelled %v", seed, a.TotalWeight, b.TotalWeight)
		}
	}
}

func TestIsometricFilterPrunes(t *testing.T) {
	cfg := gen.Config{MaxWeight: 9}
	rng := gen.NewRNG(222)
	g := gen.GNM(40, 100, cfg, rng)
	res := Compute(g, Options{UseEar: false, AllRoots: true})
	if res.RejectedCandidates == 0 {
		t.Fatal("dense graph with all roots should reject many non-isometric candidates")
	}
	if res.NumCandidates == 0 {
		t.Fatal("no candidates survived")
	}
	// the filter typically prunes the majority of the raw Horton set
	if res.RejectedCandidates < res.NumCandidates {
		t.Logf("note: filter pruned %d of %d+%d raw candidates",
			res.RejectedCandidates, res.NumCandidates, res.RejectedCandidates)
	}
}

// TestWeightMultisetInvariant: all minimum weight bases of a matroid share
// the same multiset of element weights, not just the same total. Compare
// the three independent pipelines cycle-by-cycle.
func TestWeightMultisetInvariant(t *testing.T) {
	cfg := gen.Config{MaxWeight: 14}
	for seed := uint64(1); seed <= 5; seed++ {
		rng := gen.NewRNG(seed * 17)
		g := gen.Subdivide(gen.GNM(16, 28, cfg, rng), 0.5, 2, cfg, rng)
		multiset := func(res *Result) []graph.Weight {
			ws := make([]graph.Weight, len(res.Cycles))
			for i, c := range res.Cycles {
				ws[i] = c.Weight
			}
			sort.Float64s(ws)
			return ws
		}
		a := multiset(Compute(g, Options{UseEar: true, Seed: seed}))
		b := multiset(Compute(g, Options{UseEar: false, Seed: seed + 100}))
		c := multiset(HortonMCB(g, false, seed+200))
		d := multiset(Compute(g, Options{UseEar: true, SignedSearch: true, Seed: seed + 300}))
		for i := range a {
			if a[i] != b[i] || b[i] != c[i] || c[i] != d[i] {
				t.Fatalf("seed %d: weight multisets differ at %d: %v %v %v %v",
					seed, i, a[i], b[i], c[i], d[i])
			}
		}
	}
}
