package main

// The request sequence of every workload is a pure function of
// (seed, workload, index): each request is derived by hashing those three
// numbers, so neither the order the generator's goroutines run in nor how
// many requests a run gets through changes any request.

type reqKind uint8

const (
	kindDistance reqKind = iota
	kindPath
	kindBatch
)

// request is one generated operation against tenant's graph.
type request struct {
	kind    reqKind
	tenant  int
	u, v    int32
	sources []int32 // kindBatch
	targets []int32
}

// sequence yields the workload's i-th request. The generator's clients
// take the indices in order from one shared counter.
type sequence func(i int) request

// mix is splitmix64 over the running state x combined with v.
func mix(x, v uint64) uint64 {
	x += v + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func hashName(s string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// rng is a tiny deterministic stream for one request.
type rng struct{ x uint64 }

func newRNG(seed uint64, workload string, c, i int) *rng {
	x := mix(seed, hashName(workload))
	x = mix(x, uint64(c))
	return &rng{mix(x, uint64(i))}
}

func (r *rng) next() uint64 {
	r.x = mix(r.x, 1)
	return r.x
}

func (r *rng) intn(n int) int32 { return int32(r.next() % uint64(n)) }

// permutation is a seed-shuffled order of the n vertices.
func permutation(seed uint64, workload string, n int) []int32 {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	r := newRNG(seed, workload+"/perm", 0, 0)
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

const hotSetSize = 64

// hotSequence draws sources from a fixed hot set of 64 vertices and
// targets uniformly: after warm-up every request hits the row cache.
func hotSequence(seed uint64, n int) sequence {
	hot := permutation(seed, "point_hot", n)[:hotSetSize]
	return func(i int) request {
		r := newRNG(seed, "point_hot", 0, i)
		return request{kind: kindDistance, u: hot[r.intn(hotSetSize)], v: r.intn(n)}
	}
}

// coldSequence walks a seed-shuffled permutation of all n vertices
// cyclically. With n above the row cache's
// capacity an LRU has evicted every source before the walk returns to it,
// so every request builds a row.
func coldSequence(seed uint64, n int) sequence {
	perm := permutation(seed, "point_cold", n)
	return func(i int) request {
		r := newRNG(seed, "point_cold", 0, i)
		return request{kind: kindDistance, u: perm[i%n], v: r.intn(n)}
	}
}

const (
	batchSources = 12
	batchTargets = 64
)

// batchSequence asks for 12 fresh sources × 64 uniform targets per
// request, the sources from the same kind of cyclic walk as coldSequence.
func batchSequence(seed uint64, n int) sequence {
	perm := permutation(seed, "batch_rows", n)
	return func(i int) request {
		r := newRNG(seed, "batch_rows", 0, i)
		req := request{kind: kindBatch,
			sources: make([]int32, batchSources), targets: make([]int32, batchTargets)}
		base := i * batchSources
		for k := range req.sources {
			req.sources[k] = perm[(base+k)%n]
		}
		for k := range req.targets {
			req.targets[k] = r.intn(n)
		}
		return req
	}
}

// mixedSequence alternates the tenants; 78 % distance (half from the
// tenant's hot set, half uniform), 20 % path, 2 % batch of 8 × 32. With a
// batch share of 10 % the batches against the larger tenant were exactly
// the slowest 5 % of requests, and p95 jumped between the two populations
// from run to run; at 2 % it lies inside the requests that build one row
// of the larger tenant, which are a quarter of all requests.
func mixedSequence(seed uint64, sizes []int) sequence {
	hot := make([][]int32, len(sizes))
	for t, n := range sizes {
		hot[t] = permutation(seed+uint64(t), "mixed_rw", n)[:hotSetSize]
	}
	return func(i int) request {
		r := newRNG(seed, "mixed_rw", 0, i)
		t := i % len(sizes)
		n := sizes[t]
		req := request{tenant: t, u: r.intn(n), v: r.intn(n)}
		switch p := r.intn(100); {
		case p < 39:
			req.u = hot[t][r.intn(hotSetSize)]
		case p < 78:
		case p < 98:
			req.kind = kindPath
		default:
			req.kind = kindBatch
			req.sources = make([]int32, 8)
			req.targets = make([]int32, 32)
			for k := range req.sources {
				req.sources[k] = r.intn(n)
			}
			for k := range req.targets {
				req.targets[k] = r.intn(n)
			}
		}
		return req
	}
}
