// Package bfs computes breadth-first-search shortest-path trees.
//
// Every algorithm in the paper is phrased in terms of the trees T_v
// (paper §4): the canonical shortest path between x and y "is" the tree
// path in T_x, distances d(x, ·) come from the BFS labelling, and
// "does edge e lie on the xy path" is an ancestry test in T_x
// (implemented in internal/lca). Trees built by this package are
// deterministic: the parent of a vertex is its first discoverer, and
// neighbors are scanned in ascending order, so for a fixed graph the
// canonical paths are fixed. Determinism is what makes the replacement-
// path outputs of independent algorithm implementations comparable in
// tests.
package bfs

import (
	"fmt"

	"msrp/internal/engine"
	"msrp/internal/graph"
)

// Unreachable marks vertices with no path from the root.
const Unreachable = int32(-1)

// Tree is the BFS shortest-path tree of a root vertex. All slice fields
// are indexed by vertex id and must be treated as read-only.
type Tree struct {
	Root int32

	// Dist[v] is d(root, v), or Unreachable.
	Dist []int32

	// Parent[v] is the tree parent of v; -1 for the root and for
	// unreachable vertices.
	Parent []int32

	// ParentEdge[v] is the graph edge id connecting v to Parent[v];
	// -1 for the root and unreachable vertices.
	ParentEdge []int32

	// Order lists reachable vertices in dequeue order (root first).
	// Vertices at distance d form a contiguous run.
	Order []int32
}

// New computes the BFS tree of root in g.
func New(g *graph.Graph, root int) *Tree {
	n := g.NumVertices()
	if root < 0 || root >= n {
		panic(fmt.Sprintf("bfs: root %d out of range [0,%d)", root, n))
	}
	// The four arrays share one allocation: a forest holds a tree per
	// landmark or center, and four separate n-element arrays each round
	// up to their allocation size class (896 bytes for 800 at n = 200).
	buf := make([]int32, 4*n)
	t := &Tree{
		Root:       int32(root),
		Dist:       buf[:n:n],
		Parent:     buf[n : 2*n : 2*n],
		ParentEdge: buf[2*n : 3*n : 3*n],
		Order:      buf[3*n : 3*n : 4*n],
	}
	for i := 0; i < n; i++ {
		t.Dist[i] = Unreachable
		t.Parent[i] = -1
		t.ParentEdge[i] = -1
	}
	t.Dist[root] = 0
	t.Order = append(t.Order, int32(root))
	for head := 0; head < len(t.Order); head++ {
		v := t.Order[head]
		vtx, ids := g.Neighbors(int(v))
		for i, w := range vtx {
			if t.Dist[w] == Unreachable {
				t.Dist[w] = t.Dist[v] + 1
				t.Parent[w] = v
				t.ParentEdge[w] = ids[i]
				t.Order = append(t.Order, w)
			}
		}
	}
	return t
}

// Reachable reports whether v has a path from the root.
func (t *Tree) Reachable(v int32) bool { return t.Dist[v] != Unreachable }

// Bytes returns the tree's array footprint — the unit the provenance
// plane's memory accounting uses for the retained center forests.
func (t *Tree) Bytes() int64 {
	return 4 * int64(len(t.Dist)+len(t.Parent)+len(t.ParentEdge)+len(t.Order))
}

// PathTo returns the canonical root→v tree path as a vertex sequence
// (root first, v last), or nil if v is unreachable.
func (t *Tree) PathTo(v int32) []int32 {
	if !t.Reachable(v) {
		return nil
	}
	path := make([]int32, t.Dist[v]+1)
	for i, x := len(path)-1, v; i >= 0; i-- {
		path[i] = x
		x = t.Parent[x]
	}
	return path
}

// PathEdgesTo returns the edge ids along the canonical root→v path in
// root-to-v order (edge i connects path[i] and path[i+1]), or nil if v
// is unreachable. len(PathEdgesTo(v)) == Dist[v].
func (t *Tree) PathEdgesTo(v int32) []int32 {
	if !t.Reachable(v) {
		return nil
	}
	edges := make([]int32, t.Dist[v])
	for i, x := len(edges)-1, v; i >= 0; i-- {
		edges[i] = t.ParentEdge[x]
		x = t.Parent[x]
	}
	return edges
}

// PathInto is PathTo writing into dst's backing array when it has the
// capacity (allocating only when it does not). Hot loops that expand
// Θ(σn) paths pass an engine Scratch buffer sized to the graph so the
// whole sweep allocates nothing. Returns nil if v is unreachable.
func (t *Tree) PathInto(dst []int32, v int32) []int32 {
	if !t.Reachable(v) {
		return nil
	}
	k := int(t.Dist[v]) + 1
	if cap(dst) < k {
		dst = make([]int32, k)
	} else {
		dst = dst[:k]
	}
	for i, x := k-1, v; i >= 0; i-- {
		dst[i] = x
		x = t.Parent[x]
	}
	return dst
}

// PathEdgesInto is PathEdgesTo writing into dst's backing array when it
// has the capacity (allocating only when it does not). Returns nil if v
// is unreachable.
func (t *Tree) PathEdgesInto(dst []int32, v int32) []int32 {
	if !t.Reachable(v) {
		return nil
	}
	k := int(t.Dist[v])
	if cap(dst) < k {
		dst = make([]int32, k)
	} else {
		dst = dst[:k]
	}
	for i, x := k-1, v; i >= 0; i-- {
		dst[i] = t.ParentEdge[x]
		x = t.Parent[x]
	}
	return dst
}

// ChildEndpoint returns the endpoint of tree edge e that is farther from
// the root (the "child" side), given the tree and the graph, along with
// true if e is a tree edge of t. A graph edge e=(u,v) is a tree edge iff
// one endpoint's ParentEdge is e.
func (t *Tree) ChildEndpoint(g *graph.Graph, e int32) (int32, bool) {
	u, v := g.EdgeEndpoints(int(e))
	if t.ParentEdge[v] == e {
		return v, true
	}
	if t.ParentEdge[u] == e {
		return u, true
	}
	return -1, false
}

// Forest bundles BFS trees from a set of roots. It exists because the
// algorithm builds trees from all sources, all landmarks and all centers
// and wants a single lookup point with optional parallel construction.
type Forest struct {
	Roots []int32
	Trees map[int32]*Tree
}

// NewForest builds trees from every root, sharding the builds across
// the given engine pool (nil means sequential). Duplicated roots are
// built once. The result is deterministic regardless of the pool's
// worker count because each tree depends only on (g, root).
func NewForest(g *graph.Graph, roots []int32, pool *engine.Pool) *Forest {
	uniq := make([]int32, 0, len(roots))
	seen := make(map[int32]struct{}, len(roots))
	for _, r := range roots {
		if _, dup := seen[r]; !dup {
			seen[r] = struct{}{}
			uniq = append(uniq, r)
		}
	}
	f := &Forest{
		Roots: uniq,
		Trees: make(map[int32]*Tree, len(uniq)),
	}
	if pool == nil {
		pool = engine.New(1)
	}
	built := make([]*Tree, len(uniq))
	pool.Run(len(uniq), func(i int) {
		built[i] = New(g, int(uniq[i]))
	})
	for i, r := range uniq {
		f.Trees[r] = built[i]
	}
	return f
}

// Tree returns the tree rooted at r, or nil if r was not a root.
func (f *Forest) Tree(r int32) *Tree { return f.Trees[r] }
