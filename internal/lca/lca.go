// Package lca answers constant-time ancestry queries on BFS trees.
//
// The paper's algorithms lean on one primitive (Lemma 6, citing
// Bender–Farach-Colton): given the canonical tree T_x, decide in O(1)
// whether an edge e lies on the canonical x→y path. For a BFS tree this
// reduces to "is the child endpoint of e an ancestor of y", which DFS
// entry/exit timestamps answer with two integer comparisons. No
// algorithm here needs full lowest-common-ancestor queries.
package lca

import (
	"msrp/internal/bfs"
	"msrp/internal/graph"
)

// Ancestry answers O(1) ancestor queries on one BFS tree via DFS
// entry/exit timestamps. The algorithm builds one per landmark/center
// tree, and all it ever asks is "does edge e lie on the canonical
// root→y path".
type Ancestry struct {
	tree *bfs.Tree

	// tin/tout are entry/exit timestamps of the DFS over the tree;
	// a is an ancestor of b iff tin[a] <= tin[b] && tout[b] <= tout[a].
	// Unreachable vertices have tin = -1.
	tin, tout []int32
}

// NewAncestry builds the ancestor structure for t. The graph g must be
// the graph t was built from.
func NewAncestry(g *graph.Graph, t *bfs.Tree) *Ancestry {
	n := g.NumVertices()
	stamps := make([]int32, 2*n) // one allocation, as for the tree's arrays
	anc := &Ancestry{
		tree: t,
		tin:  stamps[:n:n],
		tout: stamps[n:],
	}
	for i := 0; i < n; i++ {
		anc.tin[i] = -1
		anc.tout[i] = -1
	}

	// Children lists in CSR form, derived from the parent array. The
	// order children appear in bfs Order is deterministic, so the
	// stamps are too.
	childOff := make([]int32, n+1)
	for _, v := range t.Order {
		if p := t.Parent[v]; p >= 0 {
			childOff[p+1]++
		}
	}
	for v := 0; v < n; v++ {
		childOff[v+1] += childOff[v]
	}
	children := make([]int32, len(t.Order)-1)
	cursor := make([]int32, n)
	copy(cursor, childOff[:n])
	for _, v := range t.Order {
		if p := t.Parent[v]; p >= 0 {
			children[cursor[p]] = v
			cursor[p]++
		}
	}

	// Iterative DFS producing tin/tout.
	type frame struct {
		v    int32
		next int32
	}
	stack := make([]frame, 0, 64)
	stack = append(stack, frame{v: t.Root})
	timer := int32(0)
	anc.tin[t.Root] = timer
	timer++
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		v := f.v
		lo, hi := childOff[v], childOff[v+1]
		if f.next < hi-lo {
			c := children[lo+f.next]
			f.next++
			anc.tin[c] = timer
			timer++
			stack = append(stack, frame{v: c})
			continue
		}
		anc.tout[v] = timer
		timer++
		stack = stack[:len(stack)-1]
	}
	return anc
}

// Bytes returns the ancestry's own array footprint (excluding the tree
// it indexes) — used by the provenance plane's memory accounting.
func (a *Ancestry) Bytes() int64 { return 4 * int64(len(a.tin)+len(a.tout)) }

// Tree returns the underlying BFS tree.
func (a *Ancestry) Tree() *bfs.Tree { return a.tree }

// Stamps returns v's DFS entry and exit timestamps (-1, -1 when v is
// unreachable): for reachable x and y, x is an ancestor of y iff
// tin(x) <= tin(y) && tout(y) <= tout(x). Callers that test one vertex
// against many trees copy the stamps into a layout of their own.
func (a *Ancestry) Stamps(v int32) (tin, tout int32) { return a.tin[v], a.tout[v] }

// IsAncestor reports whether a is an ancestor of b (inclusive: every
// reachable vertex is an ancestor of itself). Unreachable vertices have
// no ancestry relations.
func (a *Ancestry) IsAncestor(x, y int32) bool {
	if a.tin[x] < 0 || a.tin[y] < 0 {
		return false
	}
	return a.tin[x] <= a.tin[y] && a.tout[y] <= a.tout[x]
}

// EdgeOnRootPath reports whether graph edge e lies on the canonical
// root→target tree path: e must be a tree edge and its child endpoint an
// ancestor of target. This is the paper's ubiquitous "if e does not lie
// on the xy path" test (O(1)).
func (a *Ancestry) EdgeOnRootPath(g *graph.Graph, e int32, target int32) bool {
	child, ok := a.tree.ChildEndpoint(g, e)
	if !ok {
		return false
	}
	return a.IsAncestor(child, target)
}
