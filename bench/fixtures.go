package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/apsp"
	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/shard"
)

// fixture names one seeded dataset of internal/datasets at a scale.
type fixture struct {
	name, dataset string
	scale         float64
}

// The serving fixtures. blocks (7196 v / 29353 e / 579 blocks) is larger
// than the default 4096-row cache, which is what makes point_cold miss on
// every request. chains_xs (875 v / 1914 e, one block) is mixed_rw's second
// tenant: rebuilding its only block takes about 8 ms. With a tenant whose
// block took 50 ms the writer stalled reads for a twentieth of the time,
// and p95 flipped from run to run between requests that met a stall and
// requests that did not; now the stalls sit above p99.
var (
	fxBlocks   = fixture{"blocks", "cond_mat_2003", 0.25}
	fxChainsXS = fixture{"chains_xs", "as-22july06", 0.04}
)

// The build-pipeline fixtures are smaller, so that one run completes a
// few dozen passes over the whole pipeline: blocks_m 2251 v / 187 blocks,
// chains_s 2218 v / 4814 e, planar_s 959 v, cycles_s 453 v with cycle-space dimension 521.
var (
	fxBlocksM = fixture{"blocks_m", "cond_mat_2003", 0.08}
	fxChainsS = fixture{"chains_s", "as-22july06", 0.1}
	fxPlanarS = fixture{"planar_s", "Planar_3", 0.03}
	fxCyclesS = fixture{"cycles_s", "as-22july06", 0.02}
)

// datasetSeed fixes the graphs. The seed of a run drives the request
// sequences only: the shape of a generated graph moves the cost of a row
// by a fifth from one dataset seed to the next, and the benchmark's
// steadiness is judged across seeds.
const datasetSeed = 1

func (f fixture) generate() (*graph.Graph, error) {
	spec, err := datasets.ByName(f.dataset)
	if err != nil {
		return nil, err
	}
	return spec.Generate(f.scale, datasetSeed), nil
}

// workers is the build parallelism everywhere: the machine's processors.
func workers() int { return runtime.GOMAXPROCS(0) }

// built is a fixture with its reference oracle and, once written, its
// snapshot file.
type built struct {
	fixture
	g         *graph.Graph
	o         *apsp.Oracle
	snapPath  string
	snapBytes int64
	buildS    float64
	writeS    float64
}

// buildFixture generates the graph and builds its oracle in-process; the
// oracle stays as the reference every served answer is compared to.
func buildFixture(f fixture) (*built, error) {
	g, err := f.generate()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	o := apsp.NewOracleParallel(g, workers())
	return &built{fixture: f, g: g, o: o, buildS: time.Since(t0).Seconds()}, nil
}

// writeSnapshot persists the oracle as dir/<name>.snap.
func (b *built) writeSnapshot(dir string) error {
	b.snapPath = filepath.Join(dir, b.name+".snap")
	t0 := time.Now()
	n, err := writeFile(b.snapPath, func(w *bufio.Writer) (int64, error) { return b.o.WriteTo(w) })
	b.snapBytes, b.writeS = n, time.Since(t0).Seconds()
	return err
}

// cluster is a 2-shard plan of a built oracle, written to disk.
type cluster struct {
	plan       *shard.Plan
	planPath   string
	shardPaths []string
	planS      float64
	writeS     float64 // both shard snapshots
}

const numShards = 2

func (b *built) writeCluster(dir string) (*cluster, error) {
	t0 := time.Now()
	p, err := shard.PlanShards(b.o, shard.PlanOptions{Shards: numShards})
	if err != nil {
		return nil, err
	}
	c := &cluster{plan: p, planPath: filepath.Join(dir, "plan.earplan"), planS: time.Since(t0).Seconds()}
	if _, err := writeFile(c.planPath, func(w *bufio.Writer) (int64, error) { return p.WriteTo(w) }); err != nil {
		return nil, err
	}
	t0 = time.Now()
	for sid := int32(0); sid < p.NumShards; sid++ {
		path := filepath.Join(dir, fmt.Sprintf("shard-%d.snap", sid))
		meta := apsp.ShardMeta{Epoch: p.Epoch, Shard: sid, NumShards: p.NumShards}
		if _, err := writeFile(path, func(w *bufio.Writer) (int64, error) {
			return b.o.WriteShardSnapshot(w, meta, p.OwnedMask(sid))
		}); err != nil {
			return nil, err
		}
		c.shardPaths = append(c.shardPaths, path)
	}
	c.writeS = time.Since(t0).Seconds()
	return c, nil
}

func writeFile(path string, write func(*bufio.Writer) (int64, error)) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	n, err := write(w)
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return n, err
}

// smallBlockEdge and largestBlockEdge pick the edges the mixed_rw writer
// reweights. The cheap one lies in the smallest block that has at least
// three edges and at most one cut vertex: a block with two carries an
// edge of the articulation-point table, and ApplyDelta then rebuilds the
// whole a×a table. The expensive one lies in the largest block.
func smallBlockEdge(o *apsp.Oracle) int32 {
	best := -1
	for i, c := range o.Dec.Components {
		if len(c) >= 3 && len(o.BCT.BlockCuts[i]) <= 1 && (best < 0 || len(c) < len(o.Dec.Components[best])) {
			best = i
		}
	}
	if best < 0 {
		return largestBlockEdge(o)
	}
	return o.Dec.Components[best][0]
}

func largestBlockEdge(o *apsp.Oracle) int32 {
	best := 0
	for i, c := range o.Dec.Components {
		if len(c) > len(o.Dec.Components[best]) {
			best = i
		}
	}
	return o.Dec.Components[best][0]
}
