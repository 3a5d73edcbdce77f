package mcb

import (
	"context"
	"slices"
	"testing"
	"time"

	"repro/internal/bitvec"
	"repro/internal/gen"
	"repro/internal/graph"
)

// randomWitness draws a uniform vector of {0,1}^f.
func randomWitness(f int, rng *gen.RNG) *bitvec.Vector {
	s := bitvec.New(f)
	for i := 0; i < f; i++ {
		s.Set(i, rng.Intn(2) == 1)
	}
	return s
}

// searchOn builds the labelled search the way solveCoreCtx does, on g
// perturbed with seed.
func searchOn(t testing.TB, g *graph.Graph, seed uint64) (*labelState, *spanning) {
	g = perturb(g, seed)
	sp := buildSpanning(g)
	ls, err := newLabelState(context.Background(), g, sp, FeedbackVertexSet(g), 1, &phaseTimes{})
	if err != nil {
		t.Fatal(err)
	}
	return ls, sp
}

// scanLive is the search without labels: the first of the live candidates
// whose cycle vector has <C, s> = 1, and the candidates read to find it
// (all of them on a miss).
func scanLive(ls *labelState, sp *spanning, live []candidate, s *bitvec.Vector) (hit int, ops int64) {
	for i, c := range live {
		if sp.vector(ls.cs.cycleEdges(c)).Dot(s) {
			return i, int64(i + 1)
		}
	}
	return -1, int64(len(live))
}

// phaseAgainstLive runs phase i of ls and holds its answer and op count to
// scanLive; it returns live without the cycle found.
func phaseAgainstLive(t testing.TB, ls *labelState, sp *spanning, live []candidate, wit []*bitvec.Vector, i int) []candidate {
	t.Helper()
	hit, wantOps := scanLive(ls, sp, live, wit[i])
	edges, ops, ok := ls.next(wit, i)
	if ops != wantOps || ok != (hit >= 0) {
		t.Fatalf("phase %d: ops %d, found %v; the live list gives %d, %v", i, ops, ok, wantOps, hit >= 0)
	}
	if !ok {
		return live
	}
	if want := ls.cs.cycleEdges(live[hit]); !slices.Equal(edges, want) {
		t.Fatalf("phase %d: cycle %v, the live list gives %v", i, edges, want)
	}
	return slices.Delete(live, hit, hit+1)
}

// CheckBlockKernel holds the block kernel to the definitions it computes,
// on any graph. Witnesses are random, one in eight of them zero, and each
// phase XORs its witness into random later ones of its block of 64 (never
// into a zero one, which keeps a phase with no hit), reporting each update
// as updateWitnesses does. At every block start bit k of every label is
// the parity of witness base+k over the parent walk to the root
// (Algorithm 3); at every phase the hit and its ops are those of scanLive.
// It returns the phases that found a cycle and those that did not, and is
// exported to the package's external tests, which may import
// internal/check.
func CheckBlockKernel(t testing.TB, g *graph.Graph, seed uint64) (hits, misses int) {
	ls, sp := searchOn(t, g, seed)
	rng, f := gen.NewRNG(seed), sp.dim()
	wit := make([]*bitvec.Vector, f)
	for i := range wit {
		if wit[i] = bitvec.New(f); rng.Intn(8) != 0 {
			wit[i] = randomWitness(f, rng)
		}
	}
	live := slices.Clone(ls.cs.cands)
	for i := range wit {
		before := len(live)
		if live = phaseAgainstLive(t, ls, sp, live, wit, i); len(live) < before {
			hits++
		} else {
			misses++
		}
		if i%64 == 0 {
			checkLabels(t, ls, sp, wit[i:min(i+64, f)])
		}
		for j := i + 1; j < min(f, (i|63)+1); j++ {
			if wit[j].PopCount() > 0 && rng.Intn(2) == 0 {
				wit[j].Xor(wit[i])
				ls.xor(j, i)
			}
		}
	}
	return hits, misses
}

// checkLabels holds every label to the parity of each of the block's
// witnesses over the parent walk to the root.
func checkLabels(t testing.TB, ls *labelState, sp *spanning, block []*bitvec.Vector) {
	t.Helper()
	k := 1 // position 0 is the zero
	for ri, tree := range ls.cs.trees {
		for _, v := range tree.Order {
			var want uint64
			for x := v; tree.Parent[x] >= 0; x = tree.Parent[x] {
				for b, s := range block {
					if idx := sp.nontreeIndex[tree.ParentEdge[x]]; idx >= 0 && s.Get(int(idx)) {
						want ^= 1 << b
					}
				}
			}
			if ls.lab[k] != want {
				t.Fatalf("tree %d vertex %d: label %#x, walk to the root gives %#x", ri, v, ls.lab[k], want)
			}
			k++
		}
	}
	if k != len(ls.lab) {
		t.Fatalf("%d label positions for %d tree vertices", len(ls.lab), k-1)
	}
}

// TestBlockKernelDims runs CheckBlockKernel where the blocks fall
// awkwardly: one witness, one short of a block, exactly one, one over and
// two and a bit.
func TestBlockKernelDims(t *testing.T) {
	misses := 0
	for _, dim := range []int{1, 63, 64, 65, 130} {
		const n = 40
		rng := gen.NewRNG(uint64(dim))
		var edges []graph.Edge
		for v := int32(0); v < n; v++ {
			edges = append(edges, graph.Edge{U: v, V: (v + 1) % n, W: graph.Weight(1 + rng.Intn(9))})
		}
		for len(edges) < n+dim-1 {
			edges = append(edges, graph.Edge{U: rng.Int32n(n), V: rng.Int32n(n), W: graph.Weight(1 + rng.Intn(20))})
		}
		g := graph.FromEdges(n, edges)
		if Dim(g) != dim {
			t.Fatalf("graph has dim %d, want %d", Dim(g), dim)
		}
		h, m := CheckBlockKernel(t, g, uint64(dim))
		if h == 0 {
			t.Errorf("dim %d: no phase found a cycle", dim)
		}
		misses += m
	}
	if misses == 0 {
		t.Error("every phase found a cycle: the miss path is untested")
	}
}

// TestScanCountsLiveCandidates drives the search, block after block with
// no witness updates, with witnesses that hit and zero witnesses that miss
// everything, and holds every answer and every op count to a scan of a
// plain list of the live candidates until none is left.
func TestScanCountsLiveCandidates(t *testing.T) {
	ls, sp := searchOn(t, gen.TriangulatedGrid(5, 5, gen.Config{MaxWeight: 9}, gen.NewRNG(3)), 1)
	live := slices.Clone(ls.cs.cands)
	rng := gen.NewRNG(7)
	var wit []*bitvec.Vector
	for i := 0; len(live) > 0; i++ {
		if i == len(wit) {
			for k := range 64 {
				s := randomWitness(sp.dim(), rng)
				if k%3 == 2 {
					s = bitvec.New(sp.dim())
				}
				wit = append(wit, s)
			}
		}
		live = phaseAgainstLive(t, ls, sp, live, wit, i)
	}
	if len(ls.dead) != len(ls.recs) {
		t.Fatalf("%d of %d candidates taken out of play", len(ls.dead), len(ls.recs))
	}
}

// TestNextAllocatesOnlyTheCycle: in the steady state a phase of the search
// allocates the edge list it returns and nothing else (ROADMAP 7(c)).
func TestNextAllocatesOnlyTheCycle(t *testing.T) {
	ls, sp := searchOn(t, benchGraph(), 1)
	for _, c := range []struct {
		s    *bitvec.Vector
		hit  bool
		want float64
	}{{randomWitness(sp.dim(), gen.NewRNG(1)), true, 1}, {bitvec.New(sp.dim()), false, 0}} {
		got := testing.AllocsPerRun(100, func() {
			if _, _, ok := ls.next([]*bitvec.Vector{c.s}, 0); ok != c.hit {
				t.Fatalf("found %v, want %v", ok, c.hit)
			}
		})
		if got != c.want {
			t.Errorf("hit=%v: %v allocs per phase, want %v", c.hit, got, c.want)
		}
	}
}

// xorLog is a search that only records the in-block updates reported to
// it.
type xorLog [][2]int

func (*xorLog) next([]*bitvec.Vector, int) ([]int32, int64, bool) { return nil, 0, false }
func (l *xorLog) xor(j, i int)                                    { *l = append(*l, [2]int{j, i}) }

// TestUpdateWitnessesRanges: the ranged fan-out leaves the witnesses, the
// op count and the updates reported within the block exactly as the
// single-goroutine update does, and every reported update is one that
// changed a witness of the block.
func TestUpdateWitnessesRanges(t *testing.T) {
	const f = 1536
	if chunks := (f - 64) * (f / 64) / witnessGrain; chunks < 2 {
		t.Fatalf("f = %d makes %d ranges: nothing fans out", f, chunks)
	}
	var got [2][]*bitvec.Vector
	var ops [2]int64
	var logs [2]xorLog
	for k, workers := range []int{1, 4} {
		rng := gen.NewRNG(11)
		wit := make([]*bitvec.Vector, f)
		for i := range wit {
			wit[i] = randomWitness(f, rng)
		}
		before := make([]*bitvec.Vector, 64)
		for j := range before {
			before[j] = wit[j].Clone()
		}
		ci := randomWitness(f, rng)
		var res Result
		var dur time.Duration
		for i := 0; i < 3; i++ {
			if err := updateWitnesses(context.Background(), workers, wit, ci, i, &res, &dur, &logs[k]); err != nil {
				t.Fatal(err)
			}
		}
		for _, r := range logs[k] {
			if r[1] >= r[0] || r[0] >= 64 {
				t.Fatalf("update S_%d ^= S_%d reported outside the block", r[0], r[1])
			}
		}
		changed := 0
		for j := range before {
			if !slices.Equal(before[j].Ones(), wit[j].Ones()) {
				changed++
			}
		}
		if changed == 0 || changed > len(logs[k]) {
			t.Fatalf("%d witnesses of the block changed, %d updates reported", changed, len(logs[k]))
		}
		got[k], ops[k] = wit, res.UpdateOps
	}
	if ops[0] != ops[1] || !slices.Equal(logs[0], logs[1]) {
		t.Errorf("update ops %d alone, %d fanned out; reports %v and %v", ops[0], ops[1], logs[0], logs[1])
	}
	for j := range got[0] {
		if !slices.Equal(got[0][j].Ones(), got[1][j].Ones()) {
			t.Fatalf("witness %d differs between 1 and 4 workers", j)
		}
	}
}
