package apsp_test

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"repro/internal/apsp"
	"repro/internal/check"
	"repro/internal/gen"
	"repro/internal/graph"
)

// stitchCases is the kernel's table: the differential corpus plus the
// topologies where the forest walk and the own-block rule are delicate.
func stitchCases() []check.NamedGraph {
	cfg := gen.Config{MaxWeight: 7}
	rng := gen.NewRNG(0x571c4)
	return append(check.Corpus(),
		// 0 and 2 carry self-loop blocks: vertices on several blocks that
		// are not articulation points.
		check.NamedGraph{Name: "self-loop-non-ap", G: graph.FromEdges(5, []graph.Edge{
			{U: 0, V: 0, W: 1}, {U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 3},
			{U: 2, V: 2, W: 4}, {U: 2, V: 3, W: 1},
		})},
		check.NamedGraph{Name: "disconnected", G: graph.FromEdges(8, []graph.Edge{
			{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 3}, {U: 2, V: 0, W: 4}, {U: 2, V: 3, W: 1},
			{U: 4, V: 5, W: 1}, {U: 5, V: 6, W: 5}, {U: 6, V: 4, W: 2},
		})}, // vertex 7 isolated
		check.NamedGraph{Name: "isolated-only", G: graph.FromEdges(3, nil)},
		check.NamedGraph{Name: "single-block", G: gen.Ring(9, cfg, rng)},
		check.NamedGraph{Name: "star-of-blocks", G: gen.LoopFlower(5, 3, cfg, rng)},
	)
}

// shardProvider serves the kernel from a one-shard snapshot of o through
// ShardBlocks.BlockRow — the shard daemon's row path without the HTTP.
func shardProvider(t *testing.T, o *apsp.Oracle) apsp.BlockRowsFunc {
	t.Helper()
	owned := make([]bool, len(o.Blocks))
	for b := range owned {
		owned[b] = true
	}
	var buf bytes.Buffer
	if _, err := o.WriteShardSnapshot(&buf, apsp.ShardMeta{Epoch: 1, NumShards: 1}, owned); err != nil {
		t.Fatalf("WriteShardSnapshot: %v", err)
	}
	sb, err := apsp.ReadShardSnapshot(&buf)
	if err != nil {
		t.Fatalf("ReadShardSnapshot: %v", err)
	}
	return func(want []apsp.BlockWant, rows [][]graph.Weight) error {
		for i, w := range want {
			if i > 0 && want[i-1].Block >= w.Block {
				t.Errorf("want list not ascending: block %d after %d", w.Block, want[i-1].Block)
			}
			if err := sb.BlockRow(w.Block, w.Src, rows[i]); err != nil {
				return err
			}
		}
		return nil
	}
}

// planOracle loads o's plan manifest: the table-less oracle a frontend
// runs the kernels on, whose in-block rows must come from a provider.
func planOracle(t *testing.T, o *apsp.Oracle) *apsp.Oracle {
	t.Helper()
	var buf bytes.Buffer
	if _, err := o.WritePlan(&buf, 1, 1, make([]int32, len(o.Blocks))); err != nil {
		t.Fatalf("WritePlan: %v", err)
	}
	p, _, err := apsp.ReadPlan(&buf)
	if err != nil {
		t.Fatalf("ReadPlan: %v", err)
	}
	return p
}

// kernelOwners are the oracles the kernels run on: the monolith, and its
// plan manifest loaded back without block tables, where a read of a
// block's Ear would panic.
func kernelOwners(t *testing.T, o *apsp.Oracle) map[string]*apsp.Oracle {
	return map[string]*apsp.Oracle{"monolith": o, "plan": planOracle(t, o)}
}

// TestStitchKernelProviders drives the kernel through both providers —
// the oracle's resident tables and a decoded shard snapshot, the latter
// on the monolith and on the plan's oracle — and holds every row to the
// independent references bit for bit, with equal operation counts on
// every path.
func TestStitchKernelProviders(t *testing.T) {
	for _, tc := range stitchCases() {
		o := apsp.NewOracle(tc.G)
		n := tc.G.NumVertices()
		ref := apsp.FloydWarshall(tc.G)
		fetch := shardProvider(t, o)
		owners := kernelOwners(t, o)
		mono := make([]graph.Weight, n)
		got := make([]graph.Weight, n)
		for u := int32(0); int(u) < n; u++ {
			mops := o.Row(u, mono)
			for v := 0; v < n; v++ {
				// Integral weights: the tables are exact.
				want := o.Query(u, int32(v))
				if fw := ref[int(u)*n+v]; math.Float64bits(float64(fw)) != math.Float64bits(float64(want)) {
					t.Fatalf("%s: Query(%d,%d) = %v, Floyd–Warshall %v", tc.Name, u, v, want, fw)
				}
				if math.Float64bits(float64(mono[v])) != math.Float64bits(float64(want)) {
					t.Fatalf("%s: d(%d,%d) = %v via monolith, reference %v", tc.Name, u, v, mono[v], want)
				}
			}
			for owner, k := range owners {
				gops, err := k.StitchRow(u, got, fetch)
				if err != nil {
					t.Fatalf("%s: kernel row %d on the %s: %v", tc.Name, u, owner, err)
				}
				if gops != mops {
					t.Errorf("%s: row %d: %d ops via provider on the %s, %d via monolith", tc.Name, u, gops, owner, mops)
				}
				for v := 0; v < n; v++ {
					if math.Float64bits(float64(got[v])) != math.Float64bits(float64(mono[v])) {
						t.Fatalf("%s: d(%d,%d) = %v via provider on the %s, %v via monolith", tc.Name, u, v, got[v], owner, mono[v])
					}
				}
			}
		}
	}
}

// TestStitchKernelErrors pins the kernel's two failure contracts: an
// out-of-range source is a typed error that leaves out untouched (on the
// kernel and on RowChecked; Row keeps its all-Inf contract), and a
// provider failure comes back as is.
func TestStitchKernelErrors(t *testing.T) {
	g := stitchCases()[4].G // bridge-chain
	o := apsp.NewOracle(g)
	n := g.NumVertices()
	out := make([]graph.Weight, n)
	for _, u := range []int32{-1, int32(n)} {
		for i := range out {
			out[i] = 42
		}
		_, kerr := o.StitchRow(u, out, shardProvider(t, o))
		_, cerr := o.RowChecked(u, out)
		for _, err := range []error{kerr, cerr} {
			var qe *apsp.QueryError
			if !errors.Is(err, apsp.ErrVertexRange) || !errors.As(err, &qe) {
				t.Fatalf("source %d: err = %v, want *QueryError wrapping ErrVertexRange", u, err)
			}
		}
		for v, d := range out {
			if d != 42 {
				t.Fatalf("source %d: out[%d] overwritten with %v on a range error", u, v, d)
			}
		}
		if ops := o.Row(u, out); ops != 0 || out[0] != apsp.Inf || out[n-1] != apsp.Inf {
			t.Fatalf("Row(%d) = %d ops, out[0]=%v: want 0 ops and an all-Inf row", u, ops, out[0])
		}
	}
	boom := errors.New("provider down")
	_, err := o.StitchRow(0, out, func([]apsp.BlockWant, [][]graph.Weight) error { return boom })
	if err != boom {
		t.Fatalf("provider error came back as %v", err)
	}
}

// TestPairKernelProviders drives the pair kernel through both entry
// providers: the oracle's resident tables (that is Oracle.Query) and block
// rows from a decoded shard snapshot read through EntryAt — a frontend's
// pair path without the HTTP — on the monolith and on the plan's oracle.
// Every pair must agree bit for bit with the row kernel and the
// independent reference, ask for at most two block rows, and for none
// when both ends are articulation points.
func TestPairKernelProviders(t *testing.T) {
	for _, tc := range stitchCases() {
		o := apsp.NewOracle(tc.G)
		n := tc.G.NumVertices()
		ref := apsp.FloydWarshall(tc.G)
		fetch := shardProvider(t, o)
		owners := kernelOwners(t, o)
		row := make([]graph.Weight, n)
		for u := int32(0); int(u) < n; u++ {
			o.Row(u, row)
			for v := int32(0); int(v) < n; v++ {
				want := o.Query(u, v)
				if fw := ref[int(u)*n+int(v)]; math.Float64bits(float64(fw)) != math.Float64bits(float64(want)) {
					t.Fatalf("%s: Query(%d,%d) = %v, Floyd–Warshall %v", tc.Name, u, v, want, fw)
				}
				for owner, k := range owners {
					p, err := k.PlanPair(u, v)
					if err != nil {
						t.Fatalf("%s: PlanPair(%d,%d) on the %s: %v", tc.Name, u, v, owner, err)
					}
					if bothAP := k.BCT.CutIndex[u] >= 0 && k.BCT.CutIndex[v] >= 0; p.N > 2 || (bothAP || u == v) && p.N != 0 {
						t.Fatalf("%s: PlanPair(%d,%d) on the %s wants %d block rows (both APs: %v)", tc.Name, u, v, owner, p.N, bothAP)
					}
					var d [2]graph.Weight
					for i, e := range p.Want[:p.N] {
						rows := [][]graph.Weight{make([]graph.Weight, len(k.BCT.BlockVerts[e.Block]))}
						if err := fetch([]apsp.BlockWant{{Block: e.Block, Src: e.Src}}, rows); err != nil {
							t.Fatalf("%s: block row (%d,%d): %v", tc.Name, e.Block, e.Src, err)
						}
						d[i] = k.EntryAt(e, rows[0])
					}
					if got := p.Distance(d[0], d[1]); math.Float64bits(float64(got)) != math.Float64bits(float64(want)) ||
						math.Float64bits(float64(row[v])) != math.Float64bits(float64(want)) {
						t.Fatalf("%s: d(%d,%d) = %v via block rows on the %s, %v via Query, %v via the row kernel",
							tc.Name, u, v, got, owner, want, row[v])
					}
				}
			}
		}
	}
}

// TestPairKernelOutOfRange: a bad vertex is the same typed error the row
// kernel reports, and Query keeps its silent-Inf contract.
func TestPairKernelOutOfRange(t *testing.T) {
	o := apsp.NewOracle(stitchCases()[4].G) // bridge-chain
	n := int32(o.NumVertices())
	for _, uv := range [][2]int32{{-1, 0}, {0, n}, {n, n}} {
		_, err := o.PlanPair(uv[0], uv[1])
		var qe *apsp.QueryError
		if !errors.Is(err, apsp.ErrVertexRange) || !errors.As(err, &qe) {
			t.Fatalf("PlanPair(%d,%d): err = %v, want *QueryError wrapping ErrVertexRange", uv[0], uv[1], err)
		}
		if d := o.Query(uv[0], uv[1]); d != apsp.Inf {
			t.Fatalf("Query(%d,%d) = %v, want Inf", uv[0], uv[1], d)
		}
	}
}
