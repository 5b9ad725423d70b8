// Package dijkstra runs Dijkstra's algorithm over the weighted directed
// auxiliary graphs the paper constructs in §7.1, §8.1 and §8.2.2.
//
// Auxiliary graphs are built once, run once, and discarded, so the
// representation is a freshly compacted CSR of arcs with int64
// distances (auxiliary arc weights are compressed path lengths, so
// int32 sums could in principle overflow on adversarial chains; int64
// removes the concern entirely). Parent pointers are recorded so the
// §8.2.1 machinery can expand the winning paths.
package dijkstra

import (
	"fmt"
	"math"

	"msrp/internal/engine"
	"msrp/internal/pqueue"
)

// Inf is the distance reported for unreachable nodes.
const Inf = int64(math.MaxInt64)

// Builder accumulates arcs of a directed weighted graph with n nodes.
type Builder struct {
	n    int
	from []int32
	to   []int32
	w    []int32
}

// NewBuilder returns a builder for a graph on n nodes. The arcs slice
// capacity hint avoids regrowth for the large §8 auxiliary graphs.
func NewBuilder(n, arcHint int) *Builder {
	return &Builder{
		n:    n,
		from: make([]int32, 0, arcHint),
		to:   make([]int32, 0, arcHint),
		w:    make([]int32, 0, arcHint),
	}
}

// Reset reinitializes the builder for a graph on n nodes, keeping the
// arc arrays' capacity. Workers that build one auxiliary graph per item
// (internal/msrp's §8.1/§8.2.2 stages) reset a per-worker builder
// instead of allocating a new one per item.
func (b *Builder) Reset(n int) {
	b.n = n
	b.from = b.from[:0]
	b.to = b.to[:0]
	b.w = b.w[:0]
}

// NumNodes returns the node count.
func (b *Builder) NumNodes() int { return b.n }

// NumArcs returns the number of arcs added so far.
func (b *Builder) NumArcs() int { return len(b.from) }

// AddArc records the directed arc from→to with weight w. Negative
// weights are a programming error (Dijkstra requires non-negative) and
// panic immediately rather than corrupting distances downstream.
func (b *Builder) AddArc(from, to int32, w int32) {
	if w < 0 {
		panic(fmt.Sprintf("dijkstra: negative arc weight %d", w))
	}
	if from < 0 || to < 0 || int(from) >= b.n || int(to) >= b.n {
		panic(fmt.Sprintf("dijkstra: arc (%d,%d) out of range n=%d", from, to, b.n))
	}
	b.from = append(b.from, from)
	b.to = append(b.to, to)
	b.w = append(b.w, w)
}

// Graph is the finalized CSR arc structure.
type Graph struct {
	n   int
	off []int32
	to  []int32
	w   []int32
}

// Finalize compacts the builder into a Graph. The builder can be
// discarded afterwards.
func (b *Builder) Finalize() *Graph {
	g := &Graph{
		n:   b.n,
		off: make([]int32, b.n+1),
		to:  make([]int32, len(b.to)),
		w:   make([]int32, len(b.w)),
	}
	return b.finalizeInto(g, make([]int32, b.n))
}

// finalizeInto runs the counting-sort CSR construction into g's
// (presized) arrays, with cursor as the length-n scatter cursor.
// g.off must be zeroed; shared by Finalize and FinalizeScratch so the
// two allocation strategies cannot drift.
func (b *Builder) finalizeInto(g *Graph, cursor []int32) *Graph {
	for _, f := range b.from {
		g.off[f+1]++
	}
	for v := 0; v < b.n; v++ {
		g.off[v+1] += g.off[v]
	}
	copy(cursor, g.off[:b.n])
	for i, f := range b.from {
		g.to[cursor[f]] = b.to[i]
		g.w[cursor[f]] = b.w[i]
		cursor[f]++
	}
	return g
}

// FinalizeScratch is Finalize with the CSR arrays carved from an
// engine scratch, valid only until the scratch's next Reset. It serves
// the build-run-discard pattern of the §8.1/§8.2.2 auxiliary stages,
// which otherwise heap-allocate Θ(nodes + arcs) per item just to throw
// the graph away after one Run. A nil scratch falls back to Finalize.
func (b *Builder) FinalizeScratch(sc *engine.Scratch) *Graph {
	if sc == nil {
		return b.Finalize()
	}
	g := &Graph{
		n:   b.n,
		off: sc.Int32(b.n + 1),
		to:  sc.Int32(len(b.to)),
		w:   sc.Int32(len(b.w)),
	}
	for i := range g.off {
		g.off[i] = 0 // scratch carve-offs are not zeroed
	}
	return b.finalizeInto(g, sc.Int32(b.n))
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return g.n }

// NumArcs returns the arc count.
func (g *Graph) NumArcs() int { return len(g.to) }

// Result holds the output of one Dijkstra run.
type Result struct {
	// Dist[v] is the shortest distance from the source, or Inf.
	Dist []int64
	// Parent[v] is the predecessor node on a shortest path, or -1.
	Parent []int32
}

// Run executes Dijkstra from src and returns distances and parents.
func (g *Graph) Run(src int32) *Result {
	var h pqueue.Heap
	h.Grow(g.n / 4)
	return g.run(src, &Result{
		Dist:   make([]int64, g.n),
		Parent: make([]int32, g.n),
	}, &h)
}

// heapKey is the scratch attachment key of the per-worker heap.
const heapKey = "dijkstra.heap"

// RunScratch is Run with the Dist/Parent arrays carved from an engine
// scratch — for callers that copy what they need out of the Result
// before the scratch's next Reset (the §8.1/§8.2.2 stages, which
// extract a handful of rows from a Θ(nodes) result) — and the heap
// kept per worker across runs. That heap only grows by Push, to the
// largest frontier a worker has seen, rather than being presized to
// the node count. A nil scratch falls back to Run.
func (g *Graph) RunScratch(src int32, sc *engine.Scratch) *Result {
	if sc == nil {
		return g.Run(src)
	}
	h := sc.Attach(heapKey, func() any { return new(pqueue.Heap) }).(*pqueue.Heap)
	h.Reset()
	return g.run(src, &Result{
		Dist:   sc.Int64(g.n),
		Parent: sc.Int32(g.n),
	}, h)
}

func (g *Graph) run(src int32, res *Result, h *pqueue.Heap) *Result {
	for i := range res.Dist {
		res.Dist[i] = Inf
		res.Parent[i] = -1
	}
	res.Dist[src] = 0
	h.Push(0, src)
	for h.Len() > 0 {
		it := h.Pop()
		v := it.Value
		if it.Key != res.Dist[v] {
			continue // stale entry (lazy deletion)
		}
		lo, hi := g.off[v], g.off[v+1]
		for i := lo; i < hi; i++ {
			to, w := g.to[i], int64(g.w[i])
			if nd := it.Key + w; nd < res.Dist[to] {
				res.Dist[to] = nd
				res.Parent[to] = v
				h.Push(nd, to)
			}
		}
	}
	return res
}

// PathTo reconstructs the node sequence of a shortest path from the
// source to v (source first), or nil if v is unreachable.
func (r *Result) PathTo(v int32) []int32 {
	if r.Dist[v] == Inf {
		return nil
	}
	var rev []int32
	for x := v; x >= 0; x = r.Parent[x] {
		rev = append(rev, x)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}
