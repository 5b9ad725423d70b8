// Package lca answers constant-time ancestry and lowest-common-ancestor
// queries on BFS trees.
//
// The paper's algorithms lean on one primitive (Lemma 6, citing
// Bender–Farach-Colton): given the canonical tree T_x, decide in O(1)
// whether an edge e lies on the canonical x→y path. For a BFS tree this
// reduces to "is the child endpoint of e an ancestor of y", which an
// Euler tour answers with two integer comparisons. Full LCA queries are
// provided by a sparse table (range-minimum over the tour), built in
// O(n log n) and queried in O(1).
package lca

import (
	"math/bits"

	"msrp/internal/bfs"
	"msrp/internal/graph"
)

// Ancestry answers O(1) ancestor queries on one BFS tree via DFS
// entry/exit timestamps. It is the lightweight core of the package:
// the algorithm builds one per landmark/center tree, where a full LCA
// sparse table would waste Θ(n log n) memory each, and all it ever asks
// is "does edge e lie on the canonical root→y path".
type Ancestry struct {
	tree *bfs.Tree

	// tin/tout are entry/exit timestamps of the DFS over the tree;
	// a is an ancestor of b iff tin[a] <= tin[b] && tout[b] <= tout[a].
	// Unreachable vertices have tin = -1.
	tin, tout []int32
}

// Index extends Ancestry with full lowest-common-ancestor queries using
// an Euler tour plus sparse table (Bender–Farach-Colton), O(n log n)
// preprocessing and O(1) queries (the paper's Lemma 6).
type Index struct {
	Ancestry

	// euler lists vertices in tour order (2·reachable−1 entries),
	// first[v] is v's first tour position, and sparse[k][i] is the tour
	// position of the minimum-depth vertex in the window [i, i+2^k).
	euler  []int32
	first  []int32
	sparse [][]int32
}

// NewAncestry builds only the ancestor structure for t (no LCA table).
func NewAncestry(g *graph.Graph, t *bfs.Tree) *Ancestry {
	a, _ := build(g, t, false)
	return a
}

// Bytes returns the ancestry's own array footprint (excluding the tree
// it indexes) — used by the provenance plane's memory accounting.
func (a *Ancestry) Bytes() int64 { return 4 * int64(len(a.tin)+len(a.tout)) }

// New builds the full ancestry + LCA index for t. The graph g must be
// the graph t was built from (needed to enumerate children
// deterministically).
func New(g *graph.Graph, t *bfs.Tree) *Index {
	_, ix := build(g, t, true)
	return ix
}

func build(g *graph.Graph, t *bfs.Tree, withLCA bool) (*Ancestry, *Index) {
	n := g.NumVertices()
	stamps := make([]int32, 2*n) // one allocation, as for the tree's arrays
	anc := &Ancestry{
		tree: t,
		tin:  stamps[:n:n],
		tout: stamps[n:],
	}
	var ix *Index
	if withLCA {
		ix = &Index{first: make([]int32, n)}
	}
	for i := 0; i < n; i++ {
		anc.tin[i] = -1
		anc.tout[i] = -1
		if withLCA {
			ix.first[i] = -1
		}
	}

	// Children lists in CSR form, derived from the parent array. The
	// order children appear in bfs Order is deterministic, so the tour
	// is too.
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

	// Iterative DFS producing tin/tout and (if requested) the Euler tour.
	reachable := len(t.Order)
	if withLCA {
		ix.euler = make([]int32, 0, 2*reachable-1)
	}
	type frame struct {
		v    int32
		next int32
	}
	stack := make([]frame, 0, 64)
	stack = append(stack, frame{v: t.Root})
	timer := int32(0)
	anc.tin[t.Root] = timer
	timer++
	if withLCA {
		ix.first[t.Root] = 0
		ix.euler = append(ix.euler, t.Root)
	}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		v := f.v
		lo, hi := childOff[v], childOff[v+1]
		if f.next < hi-lo {
			c := children[lo+f.next]
			f.next++
			anc.tin[c] = timer
			timer++
			if withLCA {
				ix.first[c] = int32(len(ix.euler))
				ix.euler = append(ix.euler, c)
			}
			stack = append(stack, frame{v: c})
			continue
		}
		anc.tout[v] = timer
		timer++
		stack = stack[:len(stack)-1]
		if withLCA && len(stack) > 0 {
			ix.euler = append(ix.euler, stack[len(stack)-1].v)
		}
	}
	if !withLCA {
		return anc, nil
	}
	ix.Ancestry = *anc

	// Sparse table over tour depths.
	tourLen := len(ix.euler)
	levels := 1
	if tourLen > 1 {
		levels = bits.Len(uint(tourLen)) // floor(log2)+1
	}
	ix.sparse = make([][]int32, levels)
	base := make([]int32, tourLen)
	for i := range ix.euler {
		base[i] = int32(i)
	}
	ix.sparse[0] = base
	for k := 1; k < levels; k++ {
		half := 1 << (k - 1)
		width := tourLen - (1 << k) + 1
		if width < 0 {
			width = 0
		}
		row := make([]int32, width)
		prev := ix.sparse[k-1]
		for i := 0; i < width; i++ {
			a, b := prev[i], prev[i+half]
			if ix.depthAt(a) <= ix.depthAt(b) {
				row[i] = a
			} else {
				row[i] = b
			}
		}
		ix.sparse[k] = row
	}
	return &ix.Ancestry, ix
}

func (ix *Index) depthAt(tourPos int32) int32 {
	return ix.tree.Dist[ix.euler[tourPos]]
}

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

// LCA returns the lowest common ancestor of a and b in the tree, or -1
// if either vertex is unreachable from the root.
func (ix *Index) LCA(a, b int32) int32 {
	fa, fb := ix.first[a], ix.first[b]
	if fa < 0 || fb < 0 {
		return -1
	}
	if fa > fb {
		fa, fb = fb, fa
	}
	width := uint(fb - fa + 1)
	k := bits.Len(width) - 1
	i := ix.sparse[k][fa]
	j := ix.sparse[k][fb-int32(1<<k)+1]
	if ix.depthAt(i) <= ix.depthAt(j) {
		return ix.euler[i]
	}
	return ix.euler[j]
}

// TreeDist returns the number of edges on the tree path between a and
// b, or -1 if either is unreachable. Because the tree is a BFS tree this
// equals d(a,b) only when one endpoint is an ancestor of the other; it
// is the tree metric otherwise.
func (ix *Index) TreeDist(a, b int32) int32 {
	l := ix.LCA(a, b)
	if l < 0 {
		return -1
	}
	return ix.tree.Dist[a] + ix.tree.Dist[b] - 2*ix.tree.Dist[l]
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
