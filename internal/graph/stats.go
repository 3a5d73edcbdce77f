package graph

// CountComponents returns the number of connected components.
func CountComponents(g *Graph) int {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	seen := make([]bool, n)
	stack := make([]int32, 0, 64)
	comps := 0
	for start := int32(0); start < int32(n); start++ {
		if seen[start] {
			continue
		}
		comps++
		seen[start] = true
		stack = append(stack[:0], start)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			lo, hi := g.AdjacencyRange(v)
			adj := g.AdjNode()
			for i := lo; i < hi; i++ {
				if u := adj[i]; !seen[u] {
					seen[u] = true
					stack = append(stack, u)
				}
			}
		}
	}
	return comps
}

// ComponentLabels assigns each vertex a component index in [0, #components)
// and returns the labels together with the component count.
func ComponentLabels(g *Graph) (labels []int32, count int) {
	n := g.NumVertices()
	labels = make([]int32, n)
	for i := range labels {
		labels[i] = -1
	}
	stack := make([]int32, 0, 64)
	for start := int32(0); start < int32(n); start++ {
		if labels[start] >= 0 {
			continue
		}
		id := int32(count)
		count++
		labels[start] = id
		stack = append(stack[:0], start)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			lo, hi := g.AdjacencyRange(v)
			adj := g.AdjNode()
			for i := lo; i < hi; i++ {
				if u := adj[i]; labels[u] < 0 {
					labels[u] = id
					stack = append(stack, u)
				}
			}
		}
	}
	return labels, count
}
