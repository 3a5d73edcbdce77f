package ds

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"
)

// refQueue is the reference the indexed heap is held against: container/heap
// over (key, item) pairs, with an index kept by Swap so DecreaseKey can Fix.
type refQueue struct {
	keys  []float64
	items []int32
	at    map[int32]int
}

func (r *refQueue) Len() int           { return len(r.items) }
func (r *refQueue) Less(i, j int) bool { return r.keys[i] < r.keys[j] }
func (r *refQueue) Swap(i, j int) {
	r.keys[i], r.keys[j] = r.keys[j], r.keys[i]
	r.items[i], r.items[j] = r.items[j], r.items[i]
	r.at[r.items[i]], r.at[r.items[j]] = i, j
}
func (r *refQueue) Push(x any) {
	e := x.(heapEntry)
	r.at[e.item] = len(r.items)
	r.keys = append(r.keys, e.key)
	r.items = append(r.items, e.item)
}
func (r *refQueue) Pop() any {
	last := len(r.items) - 1
	e := heapEntry{r.keys[last], r.items[last]}
	r.keys, r.items = r.keys[:last], r.items[:last]
	delete(r.at, e.item)
	return e
}

// checkHeap verifies the structure after a step: pos and ent agree in both
// directions, absent items sit at -1, and no child is smaller than its
// parent.
func checkHeap(t *testing.T, h *IndexedHeap, ref *refQueue) {
	t.Helper()
	if h.Len() != ref.Len() {
		t.Fatalf("Len = %d, reference holds %d", h.Len(), ref.Len())
	}
	for i, e := range h.ent {
		if h.pos[e.item] != int32(i) {
			t.Fatalf("slot %d holds item %d but pos[%d] = %d", i, e.item, e.item, h.pos[e.item])
		}
		if ri, ok := ref.at[e.item]; !ok || ref.keys[ri] != e.key {
			t.Fatalf("item %d has key %v; the reference disagrees (present %v)", e.item, e.key, ok)
		}
		if i > 0 && h.ent[(i-1)/4].key > e.key {
			t.Fatalf("slot %d (key %v) is below slot %d (key %v)", i, e.key, (i-1)/4, h.ent[(i-1)/4].key)
		}
	}
	for item, p := range h.pos {
		if _, present := ref.at[int32(item)]; present != (p >= 0) {
			t.Fatalf("pos[%d] = %d but the reference has present=%v", item, p, present)
		}
	}
}

// heapKeys are the keys a script draws from: few enough that duplicates and
// decrease-to-equal are common, with the extremes Dijkstra can produce.
var heapKeys = []float64{0, 0, 1, 1, 2, 3, 5, 8, 0.5, 1e-300, 1e300, math.MaxFloat64, math.Inf(1)}

// runHeapScript interprets script as a sequence of operations on a heap of n
// items, two bytes per step (operation, then item and key), and holds every
// step against the reference. Operations that the contract forbids (Push of
// a present item, DecreaseKey of an absent one or to a larger key, Pop when
// empty) are turned into the nearest allowed one.
func runHeapScript(t *testing.T, n int, script []byte) {
	h := NewIndexedHeap(n)
	ref := &refQueue{at: map[int32]int{}}
	pop := func() {
		item, key := h.Pop()
		if want := ref.keys[0]; key != want {
			t.Fatalf("Pop key %v, reference minimum %v", key, want)
		}
		ri, ok := ref.at[item]
		if !ok || ref.keys[ri] != key {
			t.Fatalf("Pop returned item %d with key %v, which the reference does not hold", item, key)
		}
		heap.Remove(ref, ri)
		if h.pos[item] != -1 {
			t.Fatalf("popped item %d still at pos %d", item, h.pos[item])
		}
	}
	for i := 0; i+1 < len(script); i += 2 {
		op, arg := script[i]%8, script[i+1]
		item := int32(int(arg) % n)
		key := heapKeys[int(arg/16)%len(heapKeys)]
		ri, present := ref.at[item]
		switch {
		case op == 7 && arg%4 == 0:
			h.Reset()
			*ref = refQueue{at: map[int32]int{}}
		case op >= 5: // Pop, twice as likely as any other single step
			if h.Len() > 0 {
				pop()
			}
		case !present && op%2 == 0:
			h.Push(item, key)
			heap.Push(ref, heapEntry{key, item})
		case !present || op <= 1:
			changed := h.PushOrDecrease(item, key)
			if want := !present || key < ref.keys[ri]; changed != want {
				t.Fatalf("PushOrDecrease(%d, %v) = %v, want %v", item, key, changed, want)
			}
			if !present {
				heap.Push(ref, heapEntry{key, item})
			} else if changed {
				ref.keys[ri] = key
				heap.Fix(ref, ri)
			}
		default: // DecreaseKey, to a smaller or an equal key
			key = min(key, ref.keys[ri])
			h.DecreaseKey(item, key)
			ref.keys[ri] = key
			heap.Fix(ref, ri)
		}
		checkHeap(t, h, ref)
	}
	for h.Len() > 0 {
		pop()
		checkHeap(t, h, ref)
	}
	// Empty again, and usable: every item goes in by Push and comes out in
	// key order.
	for it := 0; it < n; it++ {
		h.Push(int32(it), heapKeys[it%len(heapKeys)])
		heap.Push(ref, heapEntry{heapKeys[it%len(heapKeys)], int32(it)})
	}
	checkHeap(t, h, ref)
	for h.Len() > 0 {
		pop()
	}
}

func TestIndexedHeapDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(40)
		if trial%10 == 0 {
			n = 1
		}
		script := make([]byte, 2*rng.Intn(200))
		rng.Read(script)
		runHeapScript(t, n, script)
	}
}

func FuzzIndexedHeap(f *testing.F) {
	f.Add(uint8(0), []byte{0, 0, 5, 0, 0, 0})                         // one item: push, pop, reuse
	f.Add(uint8(6), []byte{0, 0x00, 0, 0x01, 0, 0x02, 5, 0, 5, 0})    // equal keys
	f.Add(uint8(9), []byte{0, 0xb3, 0, 0xc4, 2, 0x03, 7, 0, 0, 0xc4}) // MaxFloat64, +Inf, Reset
	f.Add(uint8(40), []byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 2, 0x15, 3, 0x26, 5, 0, 5, 0, 5, 0})
	f.Fuzz(func(t *testing.T, n uint8, script []byte) {
		runHeapScript(t, 1+int(n)%64, script)
	})
}
