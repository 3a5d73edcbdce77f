package ear

// AppendWalk appends the along-chain walk from position i to position j to
// out, without i itself: the caller's walk already ends there. Positions
// number the chain from A: A is 0, Interior[p] is p+1, and B is
// len(Interior)+1. It returns original-graph vertex IDs in walking order.
func (c *Chain) AppendWalk(out []int32, i, j int32) []int32 {
	for i != j {
		if i < j {
			i++
		} else {
			i--
		}
		switch {
		case i == 0:
			out = append(out, c.A)
		case int(i) > len(c.Interior):
			out = append(out, c.B)
		default:
			out = append(out, c.Interior[i-1])
		}
	}
	return out
}
