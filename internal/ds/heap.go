// Package ds provides the low-level data structures shared by the shortest
// path and minimum cycle basis engines: an indexed 4-ary heap for Dijkstra,
// a union-find structure and the Index32 hash map.
package ds

// IndexedHeap is a 4-ary min-heap over the items 0..n-1 keyed by float64
// priorities. It supports DecreaseKey in O(log n), which is what Dijkstra
// needs. Items not currently in the heap have position -1.
//
// Each slot holds its key beside its item, so a comparison is one load per
// operand instead of an item load followed by a key load, and a sift moves
// a hole to the entry's final slot instead of swapping at every level.
// A node's four children are adjacent 16-byte slots, and the tree is half
// as deep as a binary one.
//
// Order among equal keys: Pop returns a minimum-key item, and which one
// among several of equal key is a deterministic function of the sequence
// of operations so far (the same script always pops the same items) but is
// otherwise unspecified — it is neither insertion order nor item order.
// Dijkstra's distances do not depend on it; a shortest path tree's choice
// between equal-length parents does.
//
// The zero value is not usable; construct with NewIndexedHeap.
type IndexedHeap struct {
	ent []heapEntry // ent[i] = entry at heap position i
	pos []int32     // pos[item] = heap position, or -1 if absent
}

type heapEntry struct {
	key  float64
	item int32
}

// NewIndexedHeap returns an empty heap able to hold items 0..n-1.
func NewIndexedHeap(n int) *IndexedHeap {
	h := &IndexedHeap{
		ent: make([]heapEntry, 0, n),
		pos: make([]int32, n),
	}
	for i := range h.pos {
		h.pos[i] = -1
	}
	return h
}

// Len reports the number of items currently in the heap.
func (h *IndexedHeap) Len() int { return len(h.ent) }

// Push inserts item with the given key. The item must not already be present.
func (h *IndexedHeap) Push(item int32, key float64) {
	i := len(h.ent)
	h.ent = append(h.ent, heapEntry{})
	h.up(i, heapEntry{key, item})
}

// DecreaseKey lowers the key of an item already in the heap. Keys may only
// decrease; increasing a key is a programming error and corrupts heap order.
func (h *IndexedHeap) DecreaseKey(item int32, key float64) {
	h.up(int(h.pos[item]), heapEntry{key, item})
}

// PushOrDecrease inserts the item if absent, otherwise lowers its key if the
// new key is smaller. It reports whether the heap changed.
func (h *IndexedHeap) PushOrDecrease(item int32, key float64) bool {
	i := int(h.pos[item])
	if i < 0 {
		h.Push(item, key)
		return true
	}
	if key < h.ent[i].key {
		h.up(i, heapEntry{key, item})
		return true
	}
	return false
}

// Pop removes and returns the item with the minimum key.
// It panics if the heap is empty.
func (h *IndexedHeap) Pop() (item int32, key float64) {
	top := h.ent[0]
	last := len(h.ent) - 1
	e := h.ent[last]
	h.ent = h.ent[:last]
	h.pos[top.item] = -1
	if last > 0 {
		h.down(e)
	}
	return top.item, top.key
}

// Reset empties the heap without reallocating, so it can be reused across
// many Dijkstra runs from different sources.
func (h *IndexedHeap) Reset() {
	for _, e := range h.ent {
		h.pos[e.item] = -1
	}
	h.ent = h.ent[:0]
}

// up places e at or above the hole at position i: entries with a larger
// key move down into the hole until e's slot is found.
func (h *IndexedHeap) up(i int, e heapEntry) {
	ent, pos := h.ent, h.pos
	for i > 0 {
		p := (i - 1) >> 2
		pe := ent[p]
		if pe.key <= e.key {
			break
		}
		ent[i] = pe
		pos[pe.item] = int32(i)
		i = p
	}
	ent[i] = e
	pos[e.item] = int32(i)
}

// down places e at or below a hole at the root: the smallest child moves
// up into the hole until no child is smaller than e.
func (h *IndexedHeap) down(e heapEntry) {
	ent, pos := h.ent, h.pos
	n := len(ent)
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m, mk := c, ent[c].key
		for j := c + 1; j < min(c+4, n); j++ {
			if k := ent[j].key; k < mk {
				m, mk = j, k
			}
		}
		if e.key <= mk {
			break
		}
		me := ent[m]
		ent[i] = me
		pos[me.item] = int32(i)
		i = m
	}
	ent[i] = e
	pos[e.item] = int32(i)
}
