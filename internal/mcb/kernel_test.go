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
func searchOn(t testing.TB, g *graph.Graph, seed uint64) (*labelledSearch, *spanning) {
	g = perturb(g, seed)
	sp := buildSpanning(g)
	l, err := newLabelledSearch(context.Background(), g, sp, FeedbackVertexSet(g), 1, &phaseTimes{})
	if err != nil {
		t.Fatal(err)
	}
	return l, sp
}

// CheckLabelKernel holds the flat kernel to the definitions it lays out
// flat, on any graph and over random witnesses: every label is the parity
// of S over the parent walk to the root (Algorithm 3), and every
// candidate's three loads are <C, S> of the cycle it stands for. It is
// exported to the package's external tests, which may import
// internal/check.
func CheckLabelKernel(t testing.TB, g *graph.Graph, seed uint64) {
	l, sp := searchOn(t, g, seed)
	cs, ls := l.cs, l.ls
	rng := gen.NewRNG(seed)
	for round := 0; round < 4; round++ {
		s := randomWitness(sp.dim(), rng)
		ls.relabel(s)
		k := 1 // position 0 is the zero
		for ri, tree := range cs.trees {
			for _, v := range tree.Order {
				want := uint8(0)
				for x := v; tree.Parent[x] >= 0; x = tree.Parent[x] {
					if idx := sp.nontreeIndex[tree.ParentEdge[x]]; idx >= 0 && s.Get(int(idx)) {
						want ^= 1
					}
				}
				if ls.lab[k] != want {
					t.Fatalf("round %d: tree %d vertex %d: label %d, walk to the root gives %d", round, ri, v, ls.lab[k], want)
				}
				k++
			}
		}
		if k != len(ls.lab) {
			t.Fatalf("%d label positions for %d tree vertices", len(ls.lab), k-1)
		}
		for i, c := range ls.cands {
			r := ls.recs[i]
			got := ls.lab[r.a]^ls.lab[r.b]^ls.sb[r.c] == 1
			if want := sp.vector(cs.cycleEdges(c)).Dot(s); got != want {
				t.Fatalf("round %d: candidate %d (root %d, edge %d): three loads give %v, <C,S> is %v", round, i, c.root, c.edge, got, want)
			}
		}
	}
}

// TestScanCountsLiveCandidates drives the search with witnesses that hit
// and zero witnesses that miss everything, and holds every answer and
// every op count to a scan of a plain list of the live candidates —
// through the compactions that removing all of them takes.
func TestScanCountsLiveCandidates(t *testing.T) {
	l, sp := searchOn(t, gen.TriangulatedGrid(5, 5, gen.Config{MaxWeight: 9}, gen.NewRNG(3)), 1)
	live := slices.Clone(l.ls.cands)
	rng := gen.NewRNG(7)
	zero := bitvec.New(sp.dim())
	compactions := 0
	for step := 0; len(live) > 0; step++ {
		s := randomWitness(sp.dim(), rng)
		if step%3 == 2 {
			s = zero
		}
		wantOps, hit := int64(len(live)), -1
		for i, c := range live {
			if sp.vector(l.cs.cycleEdges(c)).Dot(s) {
				wantOps, hit = int64(i+1), i
				break
			}
		}
		before := len(l.ls.recs)
		edges, ops, ok, err := l.next(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		if ops != wantOps || ok != (hit >= 0) {
			t.Fatalf("step %d: ops %d, found %v; the live list gives %d, %v", step, ops, ok, wantOps, hit >= 0)
		}
		if ok {
			if want := l.cs.cycleEdges(live[hit]); !slices.Equal(edges, want) {
				t.Fatalf("step %d: cycle %v, the live list gives %v", step, edges, want)
			}
			live = slices.Delete(live, hit, hit+1)
		}
		if len(l.ls.recs) < before {
			compactions++
		}
	}
	if compactions < 2 || len(l.ls.recs) != 0 {
		t.Fatalf("%d compactions, %d records left; want several and none", compactions, len(l.ls.recs))
	}
}

// TestNextAllocatesOnlyTheCycle: in the steady state a phase of the search
// allocates the edge list it returns and nothing else (ROADMAP 7(c)).
func TestNextAllocatesOnlyTheCycle(t *testing.T) {
	l, sp := searchOn(t, benchGraph(), 1)
	for _, c := range []struct {
		s    *bitvec.Vector
		hit  bool
		want float64
	}{{randomWitness(sp.dim(), gen.NewRNG(1)), true, 1}, {bitvec.New(sp.dim()), false, 0}} {
		got := testing.AllocsPerRun(100, func() {
			if _, _, ok, _ := l.next(context.Background(), c.s); ok != c.hit {
				t.Fatalf("found %v, want %v", ok, c.hit)
			}
		})
		if got != c.want {
			t.Errorf("hit=%v: %v allocs per phase, want %v", c.hit, got, c.want)
		}
	}
}

// TestUpdateWitnessesRanges: the ranged fan-out leaves the witnesses, and
// the op count, exactly as the single-goroutine update does.
func TestUpdateWitnessesRanges(t *testing.T) {
	const f = 1536
	if chunks := (f - 1) * (f / 64) / witnessGrain; chunks < 2 {
		t.Fatalf("f = %d makes %d ranges: nothing fans out", f, chunks)
	}
	var got [2][]*bitvec.Vector
	var ops [2]int64
	for k, workers := range []int{1, 4} {
		rng := gen.NewRNG(11)
		wit := make([]*bitvec.Vector, f)
		for i := range wit {
			wit[i] = randomWitness(f, rng)
		}
		ci := randomWitness(f, rng)
		var res Result
		var dur time.Duration
		for i := 0; i < 3; i++ {
			if err := updateWitnesses(context.Background(), workers, wit, ci, i, &res, &dur); err != nil {
				t.Fatal(err)
			}
		}
		got[k], ops[k] = wit, res.UpdateOps
	}
	if ops[0] != ops[1] {
		t.Errorf("update ops %d alone, %d fanned out", ops[0], ops[1])
	}
	for j := range got[0] {
		if !slices.Equal(got[0][j].Ones(), got[1][j].Ones()) {
			t.Fatalf("witness %d differs between 1 and 4 workers", j)
		}
	}
}
