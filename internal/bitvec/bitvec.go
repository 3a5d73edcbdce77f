// Package bitvec implements dense bit vectors over GF(2).
//
// The minimum cycle basis algorithm (Section 3 of the paper) represents both
// candidate cycles and De Pina witnesses S_i as incidence vectors on the
// non-tree edge set E'. The two hot operations are the inner product
// <C, S> (parity of the AND) used by the independence test, and the
// symmetric difference S_j ^= S_i used by the witness update. Both are
// word-parallel here, matching the paper's GPU block-reduction kernel in
// structure.
package bitvec

import "math/bits"

const wordBits = 64

// Vector is a fixed-length bit vector over GF(2).
type Vector struct {
	words []uint64
	n     int
}

// New returns a zero vector of n bits.
func New(n int) *Vector {
	return &Vector{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Len returns the number of bits.
func (v *Vector) Len() int { return v.n }

// Get reports bit i.
func (v *Vector) Get(i int) bool {
	return v.words[i/wordBits]>>(uint(i)%wordBits)&1 == 1
}

// Set sets bit i to b.
func (v *Vector) Set(i int, b bool) {
	if b {
		v.words[i/wordBits] |= 1 << (uint(i) % wordBits)
	} else {
		v.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
	}
}

// Flip toggles bit i.
func (v *Vector) Flip(i int) {
	v.words[i/wordBits] ^= 1 << (uint(i) % wordBits)
}

// Clone returns a deep copy.
func (v *Vector) Clone() *Vector {
	w := make([]uint64, len(v.words))
	copy(w, v.words)
	return &Vector{words: w, n: v.n}
}

// Xor sets v = v XOR o (symmetric difference; the witness update
// S_j = S_j ⊕ S_i of Algorithm 2 step 6).
func (v *Vector) Xor(o *Vector) {
	if v.n != o.n {
		panic("bitvec: Xor length mismatch")
	}
	for i, w := range o.words {
		v.words[i] ^= w
	}
}

// Dot returns the GF(2) inner product <v, o>: the parity of the number of
// positions where both vectors are 1 (Algorithm 2 steps 3 and 5).
func (v *Vector) Dot(o *Vector) bool {
	if v.n != o.n {
		panic("bitvec: Dot length mismatch")
	}
	var acc uint64
	for i, w := range o.words {
		acc ^= v.words[i] & w
	}
	return bits.OnesCount64(acc)&1 == 1
}

// PopCount returns the number of set bits.
func (v *Vector) PopCount() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// FirstOne returns the index of the lowest set bit, or -1 if the vector is
// zero. Gaussian elimination uses it as the pivot column.
func (v *Vector) FirstOne() int {
	for wi, w := range v.words {
		if w != 0 {
			return wi*wordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// Ones returns the indices of the set bits in increasing order.
func (v *Vector) Ones() []int {
	out := make([]int, 0, v.PopCount())
	for wi, w := range v.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*wordBits+b)
			w &= w - 1
		}
	}
	return out
}

// Rank performs Gaussian elimination over GF(2) on the given vectors and
// returns the rank of the set. The inputs are not modified. It is used by
// tests to verify that a computed cycle basis is linearly independent.
func Rank(vs []*Vector) int {
	if len(vs) == 0 {
		return 0
	}
	rows := make([]*Vector, len(vs))
	for i, v := range vs {
		rows[i] = v.Clone()
	}
	rank := 0
	n := rows[0].n
	for col := 0; col < n && rank < len(rows); col++ {
		pivot := -1
		for r := rank; r < len(rows); r++ {
			if rows[r].Get(col) {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			continue
		}
		rows[rank], rows[pivot] = rows[pivot], rows[rank]
		for r := 0; r < len(rows); r++ {
			if r != rank && rows[r].Get(col) {
				rows[r].Xor(rows[rank])
			}
		}
		rank++
	}
	return rank
}
