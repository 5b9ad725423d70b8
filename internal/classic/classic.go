// Package classic implements the classical near-linear single-pair
// replacement path algorithm for undirected unweighted graphs
// (Malik–Mittal–Gupta 1989; Hershberger–Suri 2001; Nardelli–Proietti–
// Widmayer 2003 — the paper's references [21], [20], [22]).
//
// For a fixed pair (s, t) it returns |st ⋄ e_i| for every edge e_i of
// the canonical s→t path in O((m + n) log n) time.
//
// # The crossing-edge characterization
//
// Let P = x_0 … x_L be the canonical (BFS-tree) s→t path and
// e_i = (x_i, x_{i+1}). Deleting e_i splits the BFS tree T_s into the
// root side R_i and the subtree D_i below x_{i+1} (t ∈ D_i). Then
//
//	|st ⋄ e_i| = min{ d(s,u) + 1 + d(v,t) : (u,v) ∈ E \ {e_i}, u ∈ R_i, v ∈ D_i }.
//
// Completeness: the true replacement path must cross the (R_i, D_i)
// cut by some edge (u,v) ≠ e_i, and its prefix/suffix are at least the
// metric distances d(s,u), d(v,t).
//
// Soundness (the subtle half, argued in full here): for u ∈ R_i
// the canonical s→u tree path avoids e_i outright; and for v ∈ D_i *no*
// shortest v→t path can use e_i in either orientation — assuming one
// contradicts the triangle inequality by two units — so concatenating
// canonical paths yields a genuine e_i-avoiding walk of the stated
// length. Plain BFS distances from t therefore suffice.
//
// # Accounting
//
// A vertex w belongs to D_i exactly when branch(w) ≥ i+1, where
// branch(w) is the index of the last path vertex on the canonical s→w
// path (subtrees D_0 ⊇ D_1 ⊇ … are nested). A non-path edge (u,v)
// therefore contributes its candidate to the contiguous index interval
// [branch(u), branch(v)−1] (and symmetrically with u, v swapped). All
// 2m candidates become range-min updates over [0, L), answered by a
// lazy chmin segment tree with point queries — O((m+n) log n) total.
// Path edges are skipped: e_j's only interval would be [j, j], i.e.
// serving as a replacement for itself.
//
// # Many targets in one pass
//
// Rows answers Pair for every target of one source at once, which is
// what the single-source solver needs for its landmarks. Seen from the
// tree edge e = (p, c) of T_s instead of from a target, the rule above
// says: every target r under c gets the minimum of d(s,u) + 1 + d(v,r)
// over edges (u, v) ≠ e with v under c and u outside. A non-tree edge
// {a, b} lies across exactly the cuts (Parent[c], c) for c strictly
// below lca(a, b), so walking the deeper endpoint up to the lca visits
// each crossing once. Slotting the targets in T_s preorder makes the
// targets under c one run of slots, so a crossing is one loop over a
// contiguous run: no segment tree, and no O(m) scan per target. The
// candidate set is Pair's, so every length is identical.
//
// Rows costs O(n + m + Σ_{oriented edges} Σ_{cuts crossed} (1 +
// targets under c)) plus the size of the rows it returns, against
// O((m + n) log n) per target for Pair. On the shallow trees of random
// graphs the walks are short and the pass is several times cheaper
// than one Pair per target. Deep trees with long cross edges make each
// edge cross many cuts; with few targets the walks alone can then cost
// more than the per-target runs would.
package classic

import (
	"msrp/internal/bfs"
	"msrp/internal/graph"
	"msrp/internal/rp"
)

// Witness records how the winning replacement path for one avoided
// edge crosses the (R_i, D_i) cut: the concrete path is
// canonical(s→U) + edge {U,V} + reverse(canonical(t→V)). V = -1 marks
// "no replacement path".
type Witness struct {
	U, V int32
}

// BuildPath assembles the witnessed replacement path as a vertex
// sequence (s first, t last), given the two BFS trees the witness was
// computed from. Returns nil for the no-path witness.
func (w Witness) BuildPath(ts, tt *bfs.Tree) []int32 {
	if w.V < 0 {
		return nil
	}
	prefix := ts.PathTo(w.U)
	suffix := tt.PathTo(w.V) // t … V; we need V … t
	out := make([]int32, 0, len(prefix)+len(suffix))
	out = append(out, prefix...)
	for i := len(suffix) - 1; i >= 0; i-- {
		out = append(out, suffix[i])
	}
	return out
}

// Pair computes the replacement path lengths for the pair (ts.Root, t)
// given the already-built BFS trees of both endpoints. tt must be the
// BFS tree rooted at t. The returned slice has ts.Dist[t] entries, the
// i-th being |st ⋄ e_i| (rp.Inf when e_i is a bridge between s and t);
// it is nil when t is unreachable or equal to the source.
func Pair(g *graph.Graph, ts, tt *bfs.Tree, t int32) []int32 {
	lengths, _ := PairWitness(g, ts, tt, t)
	return lengths
}

// PairWitness is Pair plus, for every path edge, the crossing-edge
// witness of the winning replacement path (V = -1 where none exists).
func PairWitness(g *graph.Graph, ts, tt *bfs.Tree, t int32) ([]int32, []Witness) {
	if tt.Root != t {
		panic("classic: tt is not the BFS tree of t")
	}
	if !ts.Reachable(t) || ts.Root == t {
		return nil, nil
	}
	L := int(ts.Dist[t])
	out := make([]int32, L)
	for i := range out {
		out[i] = rp.Inf
	}

	// branch[w] = index of the last path vertex on the canonical s→w
	// path; -1 for unreachable vertices. One top-down pass over the BFS
	// order (parents precede children).
	n := g.NumVertices()
	branch := make([]int32, n)
	for i := range branch {
		branch[i] = -1
	}
	onPath := make([]bool, n)
	pathEdge := make([]bool, g.NumEdges())
	for x := t; x != ts.Root; x = ts.Parent[x] {
		onPath[x] = true
		pathEdge[ts.ParentEdge[x]] = true
	}
	onPath[ts.Root] = true
	for _, v := range ts.Order {
		if onPath[v] {
			branch[v] = ts.Dist[v] // path vertex x_j has index j = its depth
		} else {
			branch[v] = branch[ts.Parent[v]]
		}
	}

	seg := newChminTree(L)
	addCandidates := func(u, v int32) {
		// Register d(s,u) + 1 + d(v,t) for every i with u ∈ R_i and
		// v ∈ D_i, i.e. i ∈ [branch(u), branch(v)−1]. The payload packs
		// the oriented crossing edge for path reconstruction.
		if !tt.Reachable(v) {
			return
		}
		lo, hi := int(branch[u]), int(branch[v])-1
		if lo > hi {
			return
		}
		seg.update(lo, hi, int64(ts.Dist[u])+1+int64(tt.Dist[v]),
			int64(u)<<32|int64(uint32(v)))
	}
	for e := int32(0); e < int32(g.NumEdges()); e++ {
		if pathEdge[e] {
			continue
		}
		u, v := g.EdgeEndpoints(int(e))
		if !ts.Reachable(u) || !ts.Reachable(v) {
			continue
		}
		addCandidates(u, v)
		addCandidates(v, u)
	}
	witness := make([]Witness, L)
	for i := 0; i < L; i++ {
		witness[i] = Witness{U: -1, V: -1}
		if c, pay := seg.query(i); c < int64(rp.Inf) {
			out[i] = int32(c)
			witness[i] = Witness{U: int32(pay >> 32), V: int32(uint32(pay))}
		}
	}
	return out, witness
}

// Run is a convenience wrapper that builds both BFS trees itself.
func Run(g *graph.Graph, s, t int32) []int32 {
	ts := bfs.New(g, int(s))
	if !ts.Reachable(t) {
		return nil
	}
	tt := bfs.New(g, int(t))
	return Pair(g, ts, tt, t)
}

// SSRPByPairs runs the classical algorithm once per target — the
// Õ(mn) baseline the paper's introduction compares against.
func SSRPByPairs(g *graph.Graph, s int32) *rp.Result {
	ts := bfs.New(g, int(s))
	res := rp.NewResult(ts)
	for t := int32(0); t < int32(g.NumVertices()); t++ {
		if t == s || !ts.Reachable(t) {
			continue
		}
		tt := bfs.New(g, int(t))
		copy(res.Len[t], Pair(g, ts, tt, t))
	}
	return res
}
