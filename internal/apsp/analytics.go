package apsp

import (
	"repro/internal/graph"
	"repro/internal/par"
)

// Graph analytics derived from the oracle: eccentricities, diameter,
// radius, Wiener index. These stream one UPDATE_DISTANCE row at a time
// (O(n) working memory), which is exactly the access pattern the paper's
// O(a²+Σnᵢ²) storage argument enables — a dense n² table is never
// materialised.

// Analytics summarises the distance distribution of a connected component
// (or the whole graph when it is connected).
type Analytics struct {
	// Eccentricity[v] is max_u d(v,u) over u reachable from v;
	// 0 for isolated vertices.
	Eccentricity []graph.Weight
	// Diameter and Radius are the max/min finite eccentricities over
	// vertices that reach at least one other vertex.
	Diameter, Radius graph.Weight
	// DiameterEndpoints is a vertex pair realising the diameter.
	DiameterEndpoints [2]int32
	// Center lists the vertices whose eccentricity equals the radius.
	Center []int32
	// WienerIndex is the sum of d(u,v) over unordered reachable pairs.
	WienerIndex graph.Weight
}

// ComputeAnalytics derives the summary from an oracle, parallelised over
// row sources.
func ComputeAnalytics(o *Oracle, workers int) *Analytics {
	n := o.G.NumVertices()
	a := &Analytics{Eccentricity: make([]graph.Weight, n)}
	if workers < 1 {
		workers = 1
	}
	type partial struct {
		wiener graph.Weight
		row    []graph.Weight
	}
	parts := make([]partial, workers)
	par.ParallelFor(workers, n, func(w, src int) {
		if parts[w].row == nil {
			parts[w].row = make([]graph.Weight, n)
		}
		o.Row(int32(src), parts[w].row)
		var ecc graph.Weight
		var sum graph.Weight
		for _, d := range parts[w].row {
			if d >= Inf {
				continue
			}
			if d > ecc {
				ecc = d
			}
			sum += d
		}
		a.Eccentricity[src] = ecc
		parts[w].wiener += sum
	})
	for _, p := range parts {
		a.WienerIndex += p.wiener
	}
	a.WienerIndex /= 2 // each unordered pair counted twice

	first := true
	for v := 0; v < n; v++ {
		ecc := a.Eccentricity[v]
		if ecc == 0 && o.G.Degree(int32(v)) == 0 {
			continue // isolated
		}
		if first {
			a.Diameter, a.Radius = ecc, ecc
			first = false
		}
		if ecc > a.Diameter {
			a.Diameter = ecc
		}
		if ecc < a.Radius {
			a.Radius = ecc
		}
	}
	for v := 0; v < n; v++ {
		if a.Eccentricity[v] == a.Radius && !(a.Eccentricity[v] == 0 && o.G.Degree(int32(v)) == 0) {
			a.Center = append(a.Center, int32(v))
		}
	}
	// endpoints: any vertex at diameter eccentricity and its farthest mate
	for v := 0; v < n; v++ {
		if a.Eccentricity[v] == a.Diameter && a.Diameter > 0 {
			a.DiameterEndpoints[0] = int32(v)
			for u := 0; u < n; u++ {
				if d := o.Query(int32(v), int32(u)); d < Inf && d == a.Diameter {
					a.DiameterEndpoints[1] = int32(u)
					break
				}
			}
			break
		}
	}
	return a
}
