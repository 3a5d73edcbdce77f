// Package partition provides a k-way graph partitioner standing in for
// METIS in the Djidjev et al. baseline (Section 2.4.3). Djidjev's APSP only
// needs a reasonably balanced partition with a small boundary; we use
// farthest-point seeded BFS region growing followed by greedy boundary
// refinement, which achieves exactly that on the planar and near-planar
// inputs the baseline is evaluated on.
package partition

import (
	"repro/internal/graph"
)

// Partition assigns each vertex of g to one of k parts, returning the part
// labels. Parts are grown breadth-first from k seeds chosen by
// farthest-point traversal, then refined: refinePasses sweeps move boundary
// vertices to the neighbouring part that most reduces the edge cut, subject
// to a ±25% balance constraint.
func Partition(g *graph.Graph, k int, refinePasses int) []int32 {
	return PartitionWeighted(g, k, refinePasses, nil)
}

// PartitionWeighted is Partition balancing vertex weights instead of
// vertex counts: the ±25% balance constraint applies to each part's
// total weight. A nil weights slice means unit weights (identical to
// Partition). The shard planner uses it to balance per-block serving
// cost — a block's distance-table size — across shards, where counting
// blocks alone would let one giant biconnected component dominate a
// shard. Non-positive weights are treated as 1 so empty parts cannot
// absorb everything.
func PartitionWeighted(g *graph.Graph, k int, refinePasses int, weights []int64) []int32 {
	n := g.NumVertices()
	part := make([]int32, n)
	if k <= 1 || n == 0 {
		return part
	}
	if k > n {
		k = n
	}
	wt := func(v int32) int64 { return 1 }
	var total int64 = int64(n)
	if weights != nil {
		wt = func(v int32) int64 {
			if int(v) < len(weights) && weights[v] > 0 {
				return weights[v]
			}
			return 1
		}
		total = 0
		for v := int32(0); v < int32(n); v++ {
			total += wt(v)
		}
	}
	seeds := farthestPointSeeds(g, k)
	for i := range part {
		part[i] = -1
	}
	// Multi-source BFS: each seed claims unlabelled vertices in rounds, one
	// frontier layer per round, which keeps part sizes near-equal.
	frontiers := make([][]int32, k)
	sizes := make([]int64, k) // total weight per part
	counts := make([]int, k)  // vertices per part (parts must stay non-empty)
	for i, s := range seeds {
		part[s] = int32(i)
		frontiers[i] = []int32{s}
		sizes[i] += wt(s)
		counts[i]++
	}
	adj := g.AdjNode()
	remaining := n - k
	// Weighted growth is quota-gated: a part at or over its weight share
	// pauses (its frontier is kept) while lighter parts keep claiming, so
	// one heavy vertex cannot drag half the graph into its part. If every
	// growing part is gated or stuck, the gate lifts and growth resumes —
	// adjacency-respecting coverage beats a perfect quota. Unit weights
	// never gate (quota ≥ n/k is only reached as growth finishes), keeping
	// the unweighted path's labels unchanged.
	gated := weights != nil
	quota := total/int64(k) + 1
	for remaining > 0 {
		progress := false
		for p := 0; p < k; p++ {
			if gated && sizes[p] >= quota {
				continue // paused at quota; frontier kept for a later lift
			}
			var next []int32
			for _, v := range frontiers[p] {
				lo, hi := g.AdjacencyRange(v)
				for i := lo; i < hi; i++ {
					u := adj[i]
					if part[u] < 0 {
						part[u] = int32(p)
						sizes[p] += wt(u)
						counts[p]++
						remaining--
						next = append(next, u)
						progress = true
					}
				}
			}
			frontiers[p] = next
		}
		if !progress {
			if gated {
				gated = false
				continue
			}
			// disconnected leftovers: assign to the lightest part
			for v := int32(0); v < int32(n); v++ {
				if part[v] < 0 {
					smallest := 0
					for p := 1; p < k; p++ {
						if sizes[p] < sizes[smallest] {
							smallest = p
						}
					}
					part[v] = int32(smallest)
					sizes[smallest] += wt(v)
					counts[smallest]++
					remaining--
				}
			}
		}
	}
	// Refinement: move boundary vertices toward the majority part of their
	// neighbourhood when it reduces the cut and keeps balance.
	kk := int64(k)
	maxSize := total/kk + total/(4*kk) + 1
	gain := make([]int, k)
	for pass := 0; pass < refinePasses; pass++ {
		moved := 0
		for v := int32(0); v < int32(n); v++ {
			cur := part[v]
			lo, hi := g.AdjacencyRange(v)
			for i := range gain {
				gain[i] = 0
			}
			for i := lo; i < hi; i++ {
				gain[part[adj[i]]]++
			}
			best := cur
			for p := int32(0); p < int32(k); p++ {
				if p == cur || sizes[p]+wt(v) > maxSize {
					continue
				}
				if gain[p] > gain[best] {
					best = p
				}
			}
			if best != cur && counts[cur] > 1 {
				part[v] = best
				sizes[cur] -= wt(v)
				sizes[best] += wt(v)
				counts[cur]--
				counts[best]++
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
	return part
}

func farthestPointSeeds(g *graph.Graph, k int) []int32 {
	n := g.NumVertices()
	seeds := make([]int32, 0, k)
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = int32(n + 1)
	}
	queue := make([]int32, 0, n)
	adj := g.AdjNode()
	bfsFrom := func(s int32) {
		dist[s] = 0
		queue = append(queue[:0], s)
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			lo, hi := g.AdjacencyRange(v)
			for i := lo; i < hi; i++ {
				u := adj[i]
				if dist[u] > dist[v]+1 {
					dist[u] = dist[v] + 1
					queue = append(queue, u)
				}
			}
		}
	}
	seeds = append(seeds, 0)
	bfsFrom(0)
	for len(seeds) < k {
		far := int32(0)
		for v := int32(1); v < int32(n); v++ {
			if dist[v] > dist[far] && dist[v] <= int32(n) {
				far = v
			}
		}
		// if the graph is disconnected, unreachable vertices have dist n+1
		// and should be picked first to seed their component
		for v := int32(0); v < int32(n); v++ {
			if dist[v] == int32(n+1) {
				far = v
				break
			}
		}
		seeds = append(seeds, far)
		bfsFrom(far)
	}
	return seeds
}

// Boundary returns the vertices incident to at least one cut edge — the
// vertex set of Djidjev's boundary graph.
func Boundary(g *graph.Graph, part []int32) []int32 {
	n := g.NumVertices()
	isB := make([]bool, n)
	for _, e := range g.Edges() {
		if part[e.U] != part[e.V] {
			isB[e.U] = true
			isB[e.V] = true
		}
	}
	var out []int32
	for v := int32(0); v < int32(n); v++ {
		if isB[v] {
			out = append(out, v)
		}
	}
	return out
}
