package bitvec

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestBasicOps(t *testing.T) {
	v := New(130)
	if v.Len() != 130 || v.PopCount() != 0 {
		t.Fatal("new vector wrong")
	}
	v.Set(0, true)
	v.Set(64, true)
	v.Set(129, true)
	if !v.Get(0) || !v.Get(64) || !v.Get(129) || v.Get(1) {
		t.Fatal("get/set wrong")
	}
	if v.PopCount() != 3 {
		t.Fatalf("popcount %d", v.PopCount())
	}
	v.Flip(64)
	if v.Get(64) || v.PopCount() != 2 {
		t.Fatal("flip wrong")
	}
	v.Set(129, false)
	if v.Get(129) {
		t.Fatal("unset wrong")
	}
	ones := v.Ones()
	if len(ones) != 1 || ones[0] != 0 {
		t.Fatalf("ones %v", ones)
	}
	if v.FirstOne() != 0 {
		t.Fatalf("firstone %d", v.FirstOne())
	}
	v.Flip(0)
	if v.PopCount() != 0 || v.FirstOne() != -1 {
		t.Fatal("zero vector wrong")
	}
}

func TestXorDot(t *testing.T) {
	a := New(100)
	b := New(100)
	a.Set(3, true)
	a.Set(70, true)
	b.Set(70, true)
	b.Set(99, true)
	if !a.Dot(b) { // overlap {70}: odd
		t.Fatal("dot should be 1")
	}
	b.Set(3, true) // overlap {3,70}: even
	if a.Dot(b) {
		t.Fatal("dot should be 0")
	}
	c := a.Clone()
	c.Xor(b)
	// c = a^b = {99}
	if c.PopCount() != 1 || !c.Get(99) {
		t.Fatalf("xor wrong: %v", c.Ones())
	}
	// Xor is involutive
	c.Xor(b)
	if !slices.Equal(c.Ones(), a.Ones()) {
		t.Fatal("xor not involutive")
	}
}

// TestCloneIsIndependent: a clone has the same length and bits, and
// writes to either side do not reach the other (Rank relies on it).
func TestCloneIsIndependent(t *testing.T) {
	a := New(65)
	a.Set(64, true)
	b := a.Clone()
	if b.Len() != 65 || !slices.Equal(b.Ones(), []int{64}) {
		t.Fatalf("clone holds %v of %d bits", b.Ones(), b.Len())
	}
	b.Set(0, true)
	a.Set(64, false)
	if !slices.Equal(a.Ones(), nil) || !slices.Equal(b.Ones(), []int{0, 64}) {
		t.Fatalf("clone shares storage: a %v, b %v", a.Ones(), b.Ones())
	}
}

// Property: <a⊕b, c> = <a,c> ⊕ <b,c> (linearity of the GF(2) inner
// product) — the algebraic fact the witness update relies on.
func TestDotLinearityProperty(t *testing.T) {
	f := func(xs, ys, zs []byte) bool {
		n := 64
		a, b, c := New(n), New(n), New(n)
		for _, x := range xs {
			a.Flip(int(x) % n)
		}
		for _, y := range ys {
			b.Flip(int(y) % n)
		}
		for _, z := range zs {
			c.Flip(int(z) % n)
		}
		ab := a.Clone()
		ab.Xor(b)
		return ab.Dot(c) == (a.Dot(c) != b.Dot(c))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRank(t *testing.T) {
	mk := func(bits ...int) *Vector {
		v := New(8)
		for _, b := range bits {
			v.Set(b, true)
		}
		return v
	}
	if r := Rank(nil); r != 0 {
		t.Fatalf("empty rank %d", r)
	}
	vs := []*Vector{mk(0), mk(1), mk(0, 1)}
	if r := Rank(vs); r != 2 {
		t.Fatalf("rank %d, want 2", r)
	}
	vs2 := []*Vector{mk(0, 1), mk(1, 2), mk(2, 3), mk(3, 4)}
	if r := Rank(vs2); r != 4 {
		t.Fatalf("rank %d, want 4", r)
	}
	// rank must not mutate inputs
	if !vs2[0].Get(0) || !vs2[0].Get(1) || vs2[0].PopCount() != 2 {
		t.Fatal("Rank mutated its input")
	}
}

func TestMismatchedPanics(t *testing.T) {
	a, b := New(10), New(20)
	for name, fn := range map[string]func(){
		"xor": func() { a.Xor(b) },
		"dot": func() { a.Dot(b) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic on length mismatch", name)
				}
			}()
			fn()
		}()
	}
}
