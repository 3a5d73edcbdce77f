package ds

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestIndexedHeapBasic(t *testing.T) {
	h := NewIndexedHeap(10)
	if h.Len() != 0 {
		t.Fatal("new heap not empty")
	}
	h.Push(3, 5.0)
	h.Push(7, 1.0)
	h.Push(2, 3.0)
	if h.pos[3] < 0 || h.pos[4] >= 0 {
		t.Fatal("pos wrong")
	}
	if item, key := h.Pop(); item != 7 || key != 1.0 {
		t.Fatalf("pop got (%d,%v)", item, key)
	}
	h.DecreaseKey(3, 0.5)
	if item, _ := h.Pop(); item != 3 {
		t.Fatalf("decrease-key not honoured, popped %d", item)
	}
	if item, _ := h.Pop(); item != 2 {
		t.Fatalf("expected 2, got %d", item)
	}
	if h.Len() != 0 {
		t.Fatal("heap should be empty")
	}
}

func TestIndexedHeapPushOrDecrease(t *testing.T) {
	h := NewIndexedHeap(5)
	if !h.PushOrDecrease(0, 10) {
		t.Fatal("first push should change heap")
	}
	if h.PushOrDecrease(0, 20) {
		t.Fatal("increase must be ignored")
	}
	if !h.PushOrDecrease(0, 5) {
		t.Fatal("decrease should change heap")
	}
	if item, k := h.Pop(); item != 0 || k != 5 {
		t.Fatalf("pop got (%d,%v), want (0,5)", item, k)
	}
}

// Property: popping everything yields keys in non-decreasing order, for any
// input sequence.
func TestIndexedHeapSortProperty(t *testing.T) {
	f := func(keys []float64) bool {
		if len(keys) > 500 {
			keys = keys[:500]
		}
		h := NewIndexedHeap(len(keys))
		for i, k := range keys {
			h.Push(int32(i), k)
		}
		prev := math.Inf(-1)
		for h.Len() > 0 {
			_, k := h.Pop()
			if k < prev {
				return false
			}
			prev = k
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestIndexedHeapReset(t *testing.T) {
	h := NewIndexedHeap(4)
	h.Push(0, 1)
	h.Push(1, 2)
	h.Reset()
	if h.Len() != 0 || h.pos[0] >= 0 || h.pos[1] >= 0 {
		t.Fatal("reset did not clear")
	}
	h.Push(1, 5)
	if item, key := h.Pop(); item != 1 || key != 5 {
		t.Fatal("heap unusable after reset")
	}
}

func TestIndexedHeapRandomAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(200)
		h := NewIndexedHeap(n)
		keys := make([]float64, n)
		for i := range keys {
			keys[i] = rng.Float64() * 100
			h.Push(int32(i), keys[i])
		}
		// random decreases
		for d := 0; d < n/2; d++ {
			i := int32(rng.Intn(n))
			keys[i] *= rng.Float64()
			h.DecreaseKey(i, keys[i])
		}
		want := append([]float64(nil), keys...)
		sort.Float64s(want)
		for i := 0; i < n; i++ {
			_, k := h.Pop()
			if k != want[i] {
				t.Fatalf("trial %d: pop %d got key %v want %v", trial, i, k, want[i])
			}
		}
	}
}

func TestUnionFind(t *testing.T) {
	u := NewUnionFind(6)
	if u.Sets() != 6 {
		t.Fatal("wrong initial set count")
	}
	if !u.Union(0, 1) || !u.Union(2, 3) {
		t.Fatal("unions failed")
	}
	if u.Union(1, 0) {
		t.Fatal("repeated union should report false")
	}
	if !u.Connected(0, 1) || u.Connected(0, 2) {
		t.Fatal("connectivity wrong")
	}
	u.Union(1, 3)
	if !u.Connected(0, 2) {
		t.Fatal("transitive connectivity wrong")
	}
	if u.Sets() != 3 {
		t.Fatalf("sets = %d, want 3", u.Sets())
	}
}

// Property: union-find agrees with a naive label array.
func TestUnionFindProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		const n = 40
		u := NewUnionFind(n)
		labels := make([]int, n)
		for i := range labels {
			labels[i] = i
		}
		relabel := func(from, to int) {
			for i := range labels {
				if labels[i] == from {
					labels[i] = to
				}
			}
		}
		for _, op := range ops {
			x := int32(op % n)
			y := int32((op / n) % n)
			u.Union(x, y)
			relabel(labels[x], labels[y])
		}
		for i := int32(0); i < n; i++ {
			for j := int32(0); j < n; j++ {
				if u.Connected(i, j) != (labels[i] == labels[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
