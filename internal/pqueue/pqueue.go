// Package pqueue provides a minimal 4-ary min-heap used by the
// Dijkstra runs over the paper's auxiliary graphs.
//
// The heap stores (key, value) pairs where key is an int64 priority
// (a path length) and value an int32 node id. It is deliberately not
// an indexed heap: Dijkstra uses lazy deletion (push duplicates, skip
// stale pops), which benchmarks faster than decrease-key for the sparse
// auxiliary graphs this repository builds, and keeps the structure
// trivially correct.
//
// The branching factor is 4 rather than 2: sift-down — the cost center
// of a pop-heavy Dijkstra workload — then does half the levels, and
// the four children of a node sit in one or two cache lines (a d=4
// node's children span 64 bytes of the 12-byte Item array), trading
// strictly local extra comparisons for fewer cache-missing level hops.
// Pop order is unaffected: the heap's total order on (Key, Value) has
// a unique minimum, so any arity pops the same sequence (the
// determinism contract the solvers rely on). BenchmarkHeapArity
// measures the switch against a reference binary heap on
// hub-graph-shaped auxiliary-graph workloads.
package pqueue

// Item is a heap entry: Key orders the heap, Value identifies the node.
type Item struct {
	Key   int64
	Value int32
}

// Heap is a 4-ary min-heap of Items ordered by Key (ties broken by
// Value for determinism). The zero value is an empty heap ready to use.
type Heap struct {
	items []Item
}

// arity is the heap branching factor. 4 halves the sift-down depth
// against binary at the cost of up to 3 extra (cache-local)
// comparisons per level — the winning trade for pop-heavy Dijkstra.
const arity = 4

// Len returns the number of entries.
func (h *Heap) Len() int { return len(h.items) }

// Reset empties the heap, retaining capacity.
func (h *Heap) Reset() { h.items = h.items[:0] }

// Grow reserves capacity for at least n additional entries.
func (h *Heap) Grow(n int) {
	if cap(h.items)-len(h.items) < n {
		next := make([]Item, len(h.items), len(h.items)+n)
		copy(next, h.items)
		h.items = next
	}
}

// Push inserts an entry.
func (h *Heap) Push(key int64, value int32) {
	h.items = append(h.items, Item{Key: key, Value: value})
	h.up(len(h.items) - 1)
}

// Pop removes and returns the minimum entry. It panics on an empty
// heap; callers always guard with Len.
func (h *Heap) Pop() Item {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	if last > 0 {
		h.down(0)
	}
	return top
}

// Peek returns the minimum entry without removing it.
func (h *Heap) Peek() Item { return h.items[0] }

// lessItem is the heap order: by Key, ties broken by Value. The total
// order has a unique minimum, which is what makes pop order (and thus
// Dijkstra output) independent of the branching factor.
func lessItem(a, b Item) bool {
	if a.Key != b.Key {
		return a.Key < b.Key
	}
	return a.Value < b.Value
}

// up and down sift with a moving hole: the displaced item rides in a
// register and is stored exactly once at its final slot, so each level
// costs one 12-byte move instead of a three-move swap.

func (h *Heap) up(i int) {
	items := h.items
	it := items[i]
	for i > 0 {
		parent := (i - 1) / arity
		pv := items[parent]
		if !lessItem(it, pv) {
			break
		}
		items[i] = pv
		i = parent
	}
	items[i] = it
}

func (h *Heap) down(i int) {
	items := h.items
	n := len(items)
	it := items[i]
	for {
		first := arity*i + 1
		if first >= n {
			break
		}
		last := first + arity
		if last > n {
			last = n
		}
		smallest := first
		sv := items[first]
		for c := first + 1; c < last; c++ {
			if cv := items[c]; lessItem(cv, sv) {
				smallest, sv = c, cv
			}
		}
		if !lessItem(sv, it) {
			break
		}
		items[i] = sv
		i = smallest
	}
	items[i] = it
}
