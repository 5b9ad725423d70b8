package pqueue_test

// Binary-vs-4-ary micro-benchmark on the heap workload the hub-graph
// Dijkstras generate: a hub source fanning out to every node (the
// [x]→[h]/[h,e] arc layer) plus dense cross arcs between the block
// nodes (the [h']→[h,e] layer), driven with lazy
// deletion exactly like dijkstra.Graph.Run. The reference binary heap
// below is the pre-4-ary implementation, kept verbatim so the
// benchmark keeps measuring the actual switch.

import (
	"testing"

	"msrp/internal/pqueue"
	"msrp/internal/xrand"
)

// binHeap is the reference binary min-heap (the package's previous
// implementation, same Item layout and tie-breaking).
type binHeap struct {
	items []pqueue.Item
}

func (h *binHeap) Len() int { return len(h.items) }

func (h *binHeap) Push(key int64, value int32) {
	h.items = append(h.items, pqueue.Item{Key: key, Value: value})
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *binHeap) Pop() pqueue.Item {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	n := last
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return top
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
}

func (h *binHeap) less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if a.Key != b.Key {
		return a.Key < b.Key
	}
	return a.Value < b.Value
}

// auxGraph is a compact CSR mimicking the §8.1/§8.2.2 auxiliary shape:
// node 0 is the source with an arc to every other node (compressed
// canonical prefixes, weights spread like path lengths), and every
// block node has `cross` arcs to pseudo-random other nodes (the
// landmark/center hop layer).
type auxGraph struct {
	off []int32
	to  []int32
	w   []int32
}

func buildAuxGraph(n, cross int, seed uint64) *auxGraph {
	rng := xrand.New(seed)
	type arc struct{ from, to, w int32 }
	arcs := make([]arc, 0, n-1+(n-1)*cross)
	for v := 1; v < n; v++ {
		arcs = append(arcs, arc{0, int32(v), int32(rng.Intn(n/2) + 1)})
		for c := 0; c < cross; c++ {
			t := int32(rng.Intn(n-1) + 1)
			arcs = append(arcs, arc{int32(v), t, int32(rng.Intn(16) + 1)})
		}
	}
	g := &auxGraph{
		off: make([]int32, n+1),
		to:  make([]int32, len(arcs)),
		w:   make([]int32, len(arcs)),
	}
	for _, a := range arcs {
		g.off[a.from+1]++
	}
	for v := 0; v < n; v++ {
		g.off[v+1] += g.off[v]
	}
	cursor := append([]int32(nil), g.off[:n]...)
	for _, a := range arcs {
		g.to[cursor[a.from]] = a.to
		g.w[cursor[a.from]] = a.w
		cursor[a.from]++
	}
	return g
}

// heapAPI is the minimal surface the Dijkstra driver needs; both heap
// implementations satisfy it.
type heapAPI interface {
	Len() int
	Push(key int64, value int32)
	Pop() pqueue.Item
}

// dijkstraOver runs the lazy-deletion Dijkstra loop of
// dijkstra.Graph.Run over g with the given heap, returning a distance
// checksum (so the work cannot be optimized away and the two heaps can
// be cross-checked).
func dijkstraOver(g *auxGraph, dist []int64, h heapAPI) int64 {
	for i := range dist {
		dist[i] = 1 << 62
	}
	dist[0] = 0
	h.Push(0, 0)
	for h.Len() > 0 {
		it := h.Pop()
		v := it.Value
		if it.Key != dist[v] {
			continue
		}
		for i := g.off[v]; i < g.off[v+1]; i++ {
			to, w := g.to[i], int64(g.w[i])
			if nd := it.Key + w; nd < dist[to] {
				dist[to] = nd
				h.Push(nd, to)
			}
		}
	}
	var sum int64
	for _, d := range dist {
		sum += d
	}
	return sum
}

// TestArityMatchesBinary: the 4-ary heap pops the same sequence as the
// binary reference (the (Key, Value) total order has a unique minimum,
// so arity cannot change pop order), hence identical Dijkstra output.
func TestArityMatchesBinary(t *testing.T) {
	g := buildAuxGraph(2000, 4, 7)
	distQ := make([]int64, 2000)
	distB := make([]int64, 2000)
	var quad pqueue.Heap
	qSum := dijkstraOver(g, distQ, &quad)
	bSum := dijkstraOver(g, distB, &binHeap{})
	for i := range distQ {
		if distQ[i] != distB[i] {
			t.Fatalf("dist[%d]: 4-ary %d, binary %d", i, distQ[i], distB[i])
		}
	}
	if qSum != bSum {
		t.Fatalf("checksums differ: %d vs %d", qSum, bSum)
	}
}

// BenchmarkHeapArity compares binary vs 4-ary sift behaviour on the
// auxiliary-graph workloads: "sc" approximates the paper's §8.1
// source–center graph (moderate nodes, denser cross arcs), "cl" a §8.2.2
// center–landmark graph (more nodes, sparser crossings).
func BenchmarkHeapArity(b *testing.B) {
	workloads := []struct {
		name     string
		n, cross int
	}{
		{"sc_n4k_x8", 4_000, 8},
		{"cl_n20k_x3", 20_000, 3},
	}
	for _, wl := range workloads {
		g := buildAuxGraph(wl.n, wl.cross, uint64(wl.n))
		dist := make([]int64, wl.n)
		b.Run(wl.name+"/4ary", func(b *testing.B) {
			var sink int64
			for i := 0; i < b.N; i++ {
				var h pqueue.Heap
				sink += dijkstraOver(g, dist, &h)
			}
			_ = sink
		})
		b.Run(wl.name+"/binary", func(b *testing.B) {
			var sink int64
			for i := 0; i < b.N; i++ {
				sink += dijkstraOver(g, dist, &binHeap{})
			}
			_ = sink
		})
	}
}
