package graph

import (
	"fmt"

	"msrp/internal/xrand"
)

// This file contains the synthetic workload generators used by the test
// suite and the benchmark harness. The paper evaluates nothing
// empirically, so these families were chosen to exercise the regimes its
// analysis distinguishes: sparse expanders (Erdős–Rényi) where suffixes
// are short, high-diameter graphs (grids, cycles) where the far-edge
// machinery dominates, and bridge-heavy graphs (barbells, trees+chords)
// where replacement paths may not exist.

// Path returns the path graph 0-1-2-...-(n-1).
func Path(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		mustAdd(b, i, i+1)
	}
	return b.MustBuild()
}

// Cycle returns the cycle graph on n >= 3 vertices.
func Cycle(n int) *Graph {
	if n < 3 {
		panic(fmt.Sprintf("graph: Cycle(%d) needs n >= 3", n))
	}
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		mustAdd(b, i, (i+1)%n)
	}
	return b.MustBuild()
}

// Complete returns the complete graph K_n.
func Complete(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			mustAdd(b, i, j)
		}
	}
	return b.MustBuild()
}

// Star returns the star K_{1,n-1} centered at vertex 0.
func Star(n int) *Graph {
	b := NewBuilder(n)
	for i := 1; i < n; i++ {
		mustAdd(b, 0, i)
	}
	return b.MustBuild()
}

// Grid returns the rows x cols grid graph. Vertex (r, c) has index
// r*cols + c. Grids have diameter Θ(rows+cols), which activates every
// far-edge band of the algorithm.
func Grid(rows, cols int) *Graph {
	b := NewBuilder(rows * cols)
	at := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				mustAdd(b, at(r, c), at(r, c+1))
			}
			if r+1 < rows {
				mustAdd(b, at(r, c), at(r+1, c))
			}
		}
	}
	return b.MustBuild()
}

// GNM returns an Erdős–Rényi G(n, m) graph: m distinct edges drawn
// uniformly from all simple pairs. It panics if m exceeds the number of
// available pairs.
func GNM(rng *xrand.RNG, n, m int) *Graph {
	maxEdges := int64(n) * int64(n-1) / 2
	if int64(m) > maxEdges {
		panic(fmt.Sprintf("graph: GNM(%d,%d) exceeds %d possible edges", n, m, maxEdges))
	}
	b := NewBuilder(n)
	seen := make(map[int64]struct{}, m)
	for len(seen) < m {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		key := int64(u)*int64(n) + int64(v)
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		mustAdd(b, u, v)
	}
	return b.MustBuild()
}

// RandomConnected returns a connected random graph with n vertices and
// exactly m >= n-1 edges: a uniform random recursive tree provides
// connectivity and the remaining m-(n-1) edges are drawn uniformly from
// the unused pairs. Replacement paths are only interesting on connected
// graphs, so this is the default benchmark workload.
func RandomConnected(rng *xrand.RNG, n, m int) *Graph {
	if m < n-1 {
		panic(fmt.Sprintf("graph: RandomConnected(%d,%d) cannot be connected", n, m))
	}
	maxEdges := int64(n) * int64(n-1) / 2
	if int64(m) > maxEdges {
		panic(fmt.Sprintf("graph: RandomConnected(%d,%d) exceeds %d possible edges", n, m, maxEdges))
	}
	b := NewBuilder(n)
	seen := make(map[int64]struct{}, m)
	add := func(u, v int) bool {
		if u > v {
			u, v = v, u
		}
		key := int64(u)*int64(n) + int64(v)
		if _, dup := seen[key]; dup {
			return false
		}
		seen[key] = struct{}{}
		mustAdd(b, u, v)
		return true
	}
	// Random recursive tree: attach vertex i to a uniform earlier vertex.
	perm := rng.Perm(n) // random labelling so vertex 0 is not special
	for i := 1; i < n; i++ {
		add(perm[i], perm[rng.Intn(i)])
	}
	for len(seen) < m {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			add(u, v)
		}
	}
	return b.MustBuild()
}

// Barbell returns two cliques K_k connected by a path with bridgeLen
// edges. Every edge of the bridge path is a cut edge, so replacement
// paths across it do not exist — the generator exists to test the
// "no replacement path" (+inf) behaviour.
func Barbell(k, bridgeLen int) *Graph {
	if k < 1 || bridgeLen < 1 {
		panic(fmt.Sprintf("graph: Barbell(%d,%d) invalid", k, bridgeLen))
	}
	n := 2*k + bridgeLen - 1
	b := NewBuilder(n)
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			mustAdd(b, i, j)
			mustAdd(b, n-1-i, n-1-j)
		}
	}
	// Bridge path from vertex k-1 to vertex n-k.
	prev := k - 1
	for i := 0; i < bridgeLen; i++ {
		next := k + i
		if i == bridgeLen-1 {
			next = n - k
		}
		mustAdd(b, prev, next)
		prev = next
	}
	return b.MustBuild()
}

// CycleWithChords returns a cycle on n vertices plus `chords` random
// chords. High diameter with occasional shortcuts: the workload where
// replacement-path suffixes are long and the leveled landmark sets earn
// their keep.
func CycleWithChords(rng *xrand.RNG, n, chords int) *Graph {
	if n < 3 {
		panic(fmt.Sprintf("graph: CycleWithChords(%d,...) needs n >= 3", n))
	}
	b := NewBuilder(n)
	seen := make(map[int64]struct{}, n+chords)
	add := func(u, v int) bool {
		if u > v {
			u, v = v, u
		}
		key := int64(u)*int64(n) + int64(v)
		if _, dup := seen[key]; dup {
			return false
		}
		seen[key] = struct{}{}
		mustAdd(b, u, v)
		return true
	}
	for i := 0; i < n; i++ {
		add(i, (i+1)%n)
	}
	placed := 0
	for placed < chords {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if add(u, v) {
			placed++
		}
	}
	return b.MustBuild()
}

// PathWithChords returns the path 0-1-…-(n-1) plus `chords` random
// chords. Like CycleWithChords but with bridge edges at the ends: path
// edges outside every chord's span have no replacement path, so the
// family exercises the NoPath machinery and the far-edge bands at once.
func PathWithChords(rng *xrand.RNG, n, chords int) *Graph {
	if n < 2 {
		panic(fmt.Sprintf("graph: PathWithChords(%d,...) needs n >= 2", n))
	}
	b := NewBuilder(n)
	addChordedPath(b, rng, n, chords)
	return b.MustBuild()
}

// addChordedPath adds the path 0-1-…-(pathN-1) plus `chords` uniformly
// random deduplicated chords among its vertices to b (whose vertex
// count may exceed pathN). It returns the deduplicating add function so
// callers can attach further edges without colliding with the chords.
func addChordedPath(b *Builder, rng *xrand.RNG, pathN, chords int) func(u, v int) bool {
	n := b.NumVertices()
	seen := make(map[int64]struct{}, n+chords)
	add := func(u, v int) bool {
		if u > v {
			u, v = v, u
		}
		key := int64(u)*int64(n) + int64(v)
		if _, dup := seen[key]; dup {
			return false
		}
		seen[key] = struct{}{}
		mustAdd(b, u, v)
		return true
	}
	for i := 0; i+1 < pathN; i++ {
		add(i, i+1)
	}
	maxChords := int(int64(pathN)*int64(pathN-1)/2) - (pathN - 1)
	if chords > maxChords {
		panic(fmt.Sprintf("graph: %d chords exceed the %d possible on a %d-path", chords, maxChords, pathN))
	}
	placed := 0
	for placed < chords {
		u, v := rng.Intn(pathN), rng.Intn(pathN)
		if u == v {
			continue
		}
		if add(u, v) {
			placed++
		}
	}
	return add
}

// PreferentialAttachment returns a Barabási–Albert style graph: vertices
// arrive one at a time and connect to k distinct existing vertices
// chosen proportionally to degree. Produces the heavy-tailed degree
// distributions typical of real networks.
func PreferentialAttachment(rng *xrand.RNG, n, k int) *Graph {
	if k < 1 || n < k+1 {
		panic(fmt.Sprintf("graph: PreferentialAttachment(%d,%d) invalid", n, k))
	}
	b := NewBuilder(n)
	// targets is the degree-weighted multiset of endpoints: each edge
	// contributes both endpoints, so uniform sampling from it is
	// proportional to degree.
	targets := make([]int, 0, 2*k*n)
	// Seed with a (k+1)-clique so early vertices have degree >= k.
	for i := 0; i <= k; i++ {
		for j := i + 1; j <= k; j++ {
			mustAdd(b, i, j)
			targets = append(targets, i, j)
		}
	}
	chosen := make(map[int]struct{}, k)
	for v := k + 1; v < n; v++ {
		clear(chosen)
		for len(chosen) < k {
			u := targets[rng.Intn(len(targets))]
			chosen[u] = struct{}{}
		}
		for u := range chosen {
			mustAdd(b, v, u)
			targets = append(targets, v, u)
		}
	}
	return b.MustBuild()
}

// Caterpillar returns a path of length spineLen with legsPerSpine leaf
// vertices attached to every spine vertex. Trees are the worst case for
// replacement paths (none exist); used in failure-injection tests.
func Caterpillar(spineLen, legsPerSpine int) *Graph {
	n := spineLen * (1 + legsPerSpine)
	b := NewBuilder(n)
	for i := 0; i+1 < spineLen; i++ {
		mustAdd(b, i, i+1)
	}
	next := spineLen
	for i := 0; i < spineLen; i++ {
		for l := 0; l < legsPerSpine; l++ {
			mustAdd(b, i, next)
			next++
		}
	}
	return b.MustBuild()
}

// PathStarMix returns the chorded path 0-1-…-(pathN-1) whose head
// (vertex 0) is additionally the hub of a star with `leaves` extra
// leaves (ids pathN … pathN+leaves-1). A source deep on the path has
// Θ(pathN)-long canonical paths and a full complement of small
// replacement paths feeding the §8.2.1 seed table; a source on a leaf
// has a depth-1 entry into the same structure and almost no work of
// its own. Mixing the two produces the maximally skewed per-source
// workload — the family the engine's scheduler and the sharded
// seed-table build are measured on (E13).
func PathStarMix(rng *xrand.RNG, pathN, chords, leaves int) *Graph {
	if pathN < 2 {
		panic(fmt.Sprintf("graph: PathStarMix(%d,...) needs pathN >= 2", pathN))
	}
	b := NewBuilder(pathN + leaves)
	add := addChordedPath(b, rng, pathN, chords)
	for l := 0; l < leaves; l++ {
		add(0, pathN+l)
	}
	return b.MustBuild()
}

func mustAdd(b *Builder, u, v int) {
	if err := b.AddEdge(u, v); err != nil {
		panic(err)
	}
}
