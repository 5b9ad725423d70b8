package msrp

import (
	"fmt"
	"math"

	"msrp/internal/bfs"
	"msrp/internal/dijkstra"
	"msrp/internal/engine"
	"msrp/internal/graph"
	"msrp/internal/lca"
	"msrp/internal/rp"
	"msrp/internal/ssrp"
)

// The hub graph is the one auxiliary-graph construction behind §8.1's
// G_s (Lemma 20) and §8.2.2's G_c (Lemmas 21–22): a root x, hubs h
// reached from x by their canonical (T_x) paths, and per hub a window
// of covered edges of that path. One Dijkstra from [x] yields d(x,h,e)
// for every hub h and every edge e in h's window.
//
// Node space: [x] (node 0), [h] per hub, [h,e] per covered (hub, edge)
// pair. Arc types, each a sound e-avoiding-walk extension:
//
//	[x]  → [h]      weight |xh|          (canonical path)
//	[x]  → [h,e]    weight seed(h, e)    (a concrete x→h walk avoiding e)
//	[h'] → [h,e]    weight |h'h|         if e ∉ xh' and e ∉ h'h
//	[h',e] → [h,e]  weight |h'h|         if [h',e] exists and e ∉ h'h
//
// The shared-prefix identity applies: an edge e of T_x on both the x→h
// and x→h' canonical paths has the same 0-based index i on both, so
// [h',e] sits in the block of h' at i minus its first covered index.
//
// §8.1 (buildSourceCenter) roots G_s at source s over the centers,
// covering the last Budget(priority(c)) edges of each s→c path and
// seeding with the §7.1 small values; §8.2.2 (buildCenterLandmark)
// roots G_c at center c over the landmarks, covering the first
// Budget(priority(c)) edges of each c→r path and seeding with the
// §8.2.1 table.
type hubSpec struct {
	g   *graph.Graph
	anc *lca.Ancestry // ancestry of the root's canonical tree T_x

	// hubs lists the candidate hubs in node order; pos[v] is v's index
	// in hubs (-1 otherwise). table is the family's hub table (the
	// |h'h| weights and the e ∉ h'h test), hubTree each hub's BFS tree
	// (the h'→h legs of an expanded path).
	hubs    []int32
	pos     []int32
	table   *hubTable
	hubTree map[int32]*bfs.Tree

	// window returns the covered index range [lo, hi) of the canonical
	// x→h path of length l.
	window func(h, l int32) (lo, hi int32)
	// seed returns the [x]→[h,e] arc weight for the covered edge e at
	// index i, if there is one.
	seed func(h, i, e int32) (int32, bool)
	// track retains the parent chains (auxProv) for path expansion.
	track bool
}

// hubCell is vertex v as one hub h′'s BFS tree sees it: |h′v| (-1 when
// unreachable), v's parent edge in T_{h′} (-1 at h′ and when
// unreachable) and v's DFS stamps in T_{h′}.
type hubCell struct {
	dist, edge, tin, tout int32
}

// hubTable is one hub family's BFS trees and ancestries transposed to
// vertex-major cells: row(v)[j] is v in the tree of the family's j-th
// hub. The hub-graph arc loop reads one vertex across every hub tree,
// so each such read is one contiguous row. A solve builds one table per
// family (the centers for G_s, the landmarks for G_c) and drops it when
// it returns.
type hubTable struct {
	k     int // hubs per row
	cells []hubCell
}

// newHubTable transposes the trees and ancestries of hubs into a table
// over n vertices.
func newHubTable(n int, hubs []int32, trees map[int32]*bfs.Tree, anc map[int32]*lca.Ancestry) *hubTable {
	ht := &hubTable{k: len(hubs), cells: make([]hubCell, n*len(hubs))}
	for j, h := range hubs {
		t, a := trees[h], anc[h]
		for v := range n {
			tin, tout := a.Stamps(int32(v))
			ht.cells[v*ht.k+j] = hubCell{dist: t.Dist[v], edge: t.ParentEdge[v], tin: tin, tout: tout}
		}
	}
	return ht
}

// row returns vertex v's cells, one per hub in family order.
func (ht *hubTable) row(v int32) []hubCell {
	lo, hi := int(v)*ht.k, (int(v)+1)*ht.k
	return ht.cells[lo:hi:hi]
}

// hubSlot is one hub's place in the node space: its [h] node (-1 for
// the root and for hubs T_x does not reach, which get no nodes), the
// first node of its [h,e] block and its covered index range [lo, hi).
type hubSlot struct {
	node, base, lo, hi int32
}

// hubGraph is a solved hub graph: dense per-hub rows of d(x,h,e), the
// parent chains when tracked, and the graph's size.
type hubGraph struct {
	g       *graph.Graph
	anc     *lca.Ancestry
	pos     []int32
	hubTree map[int32]*bfs.Tree

	// rows[k][i−start[k]] = d(x, hubs[k], e_i) for every covered index
	// i of hub hubs[k]; nil for non-hubs (the root, unreachable hubs).
	start []int32
	rows  [][]int32

	// prov retains the parent chains and node decode tables under
	// hubSpec.track, so path can expand a row value into the concrete
	// walk its Dijkstra found. nil otherwise.
	prov *auxProv

	nodes, arcs int
}

// solveHubGraph builds the hub graph the spec describes and solves it
// with one Dijkstra run. Both the CSR and the Dijkstra result live in
// scr: only the rows (and the tracked parent chains) survive.
//
// Arcs are emitted edge by edge. Every covered (h, i) pair is filed
// under the T_x child vertex c of its edge (e = c's parent edge, i =
// depth(c) − 1). Per edge and per hub h′, the arc's source node and
// the stamps of e's child endpoint in T_{h′} are resolved once; each
// member hub h then scans its own table row, so the (h, h′) loop is
// two stamp comparisons per arc. Each arc has its own target and the
// Dijkstra pops in (dist, id) order, so the emission order changes
// neither the rows nor the parent chains.
func solveHubGraph(spec hubSpec, scr *engine.Scratch) *hubGraph {
	g, tree := spec.g, spec.anc.Tree()
	n, k := g.NumVertices(), len(spec.hubs)
	slots := make([]hubSlot, k)
	next := int32(1)
	for j, h := range spec.hubs {
		slots[j].node = -1
		if h != tree.Root && tree.Reachable(h) {
			slots[j].node = next
			next++
		}
	}
	for j, h := range spec.hubs {
		if sl := &slots[j]; sl.node >= 0 {
			sl.lo, sl.hi = spec.window(h, tree.Dist[h])
			sl.base = next
			next += sl.hi - sl.lo
		}
	}
	// covered visits the T_x child vertex c of every covered edge on
	// hub j's path: c sits at depth i+1 for the edge at index i.
	covered := func(j int, visit func(c int32)) {
		sl := slots[j]
		for c, d := spec.hubs[j], tree.Dist[spec.hubs[j]]; d > sl.lo; c, d = tree.Parent[c], d-1 {
			if d <= sl.hi {
				visit(c)
			}
		}
	}
	// Bucket the pairs by child vertex (a counting sort): members holds
	// hub positions, c's bucket ends at at[c] and starts where c−1's
	// ends.
	at := make([]int32, n+1)
	for j := range slots {
		if slots[j].node >= 0 {
			covered(j, func(c int32) { at[c+1]++ })
		}
	}
	for c := range n {
		at[c+1] += at[c]
	}
	members := scr.Int32(int(at[n]))
	for j := range slots {
		if slots[j].node >= 0 {
			covered(j, func(c int32) { members[at[c]] = int32(j); at[c]++ })
		}
	}

	total := int(next)
	bld := ssrp.AttachedBuilder(scr, total, total*4)
	xs := make([][2]int32, k) // each hub's T_x stamps
	for j, h := range spec.hubs {
		if slots[j].node >= 0 {
			bld.AddArc(0, slots[j].node, tree.Dist[h])
			xs[j][0], xs[j][1] = spec.anc.Stamps(h)
		}
	}
	// via[j] is hub j's side of the current edge e: src, the node an
	// arc from j leaves ([h_j] if e ∉ xh_j, [h_j,e] if e lies in h_j's
	// window, -1 for neither or no node), and tin/tout, the stamps of
	// e's child endpoint in T_{h_j} (tin = MaxInt32 when e is not a
	// T_{h_j} edge, so no vertex lies below it).
	type hubVia struct{ src, tin, tout int32 }
	via := make([]hubVia, k)
	first := int32(0)
	for c := range int32(n) {
		bucket := members[first:at[c]]
		first = at[c]
		if len(bucket) == 0 {
			continue
		}
		e, i := tree.ParentEdge[c], tree.Dist[c]-1
		cin, cout := spec.anc.Stamps(c)
		u, v := g.EdgeEndpoints(int(e))
		ru, rv := spec.table.row(u), spec.table.row(v)
		for j := range via {
			sl, vj := &slots[j], &via[j]
			switch {
			case sl.node < 0:
				vj.src = -1
				continue
			case cin > xs[j][0] || xs[j][1] > cout: // e ∉ xh_j
				vj.src = sl.node
			case i >= sl.lo && i < sl.hi:
				vj.src = sl.base + (i - sl.lo)
			default:
				vj.src = -1
				continue
			}
			switch e {
			case rv[j].edge:
				vj.tin, vj.tout = rv[j].tin, rv[j].tout
			case ru[j].edge:
				vj.tin, vj.tout = ru[j].tin, ru[j].tout
			default:
				vj.tin = math.MaxInt32
			}
		}
		for _, m := range bucket {
			h, sl := spec.hubs[m], slots[m]
			node := sl.base + (i - sl.lo)
			if w, ok := spec.seed(h, i, e); ok {
				bld.AddArc(0, node, w)
			}
			row := spec.table.row(h)
			for j, vj := range via {
				if vj.src < 0 || j == int(m) {
					continue
				}
				// |h_j h|, unless h is unreachable from h_j or e lies
				// on the canonical h_j→h path.
				if d := row[j]; d.dist >= 0 && (vj.tin > d.tin || d.tout > vj.tout) {
					bld.AddArc(vj.src, node, d.dist)
				}
			}
		}
	}
	return finishHubGraph(spec, slots, bld, scr)
}

// finishHubGraph runs the Dijkstra over bld's arcs and keeps what
// outlives scr: each placed hub's row and, under spec.track, the parent
// chains with their node decode tables.
func finishHubGraph(spec hubSpec, slots []hubSlot, bld *dijkstra.Builder, scr *engine.Scratch) *hubGraph {
	total := bld.NumNodes()
	hg := &hubGraph{
		g: spec.g, anc: spec.anc, pos: spec.pos, hubTree: spec.hubTree,
		start: make([]int32, len(spec.hubs)),
		rows:  make([][]int32, len(spec.hubs)),
		nodes: total,
		arcs:  bld.NumArcs(),
	}
	res := bld.FinalizeScratch(scr).RunScratch(0, scr)

	// One backing array serves every row: one allocation per graph
	// rather than one per placed hub.
	placed, cells := 0, int32(0)
	for _, sl := range slots {
		if sl.node >= 0 {
			placed++
			cells += sl.hi - sl.lo
		}
	}
	backing := make([]int32, cells)
	for j, sl := range slots {
		if sl.node < 0 {
			continue
		}
		row := backing[: sl.hi-sl.lo : sl.hi-sl.lo]
		backing = backing[sl.hi-sl.lo:]
		for off := range row {
			row[off] = int32(min(res.Dist[sl.base+int32(off)], int64(rp.Inf)))
		}
		hg.start[j], hg.rows[j] = sl.lo, row
	}
	if spec.track {
		ap := &auxProv{
			parent:  append([]int32(nil), res.Parent...),
			nodeOwn: make([]int32, total),
			nodeIdx: make([]int32, total),
			base:    make(map[int32]int32, placed),
			start:   make(map[int32]int32, placed),
		}
		ap.nodeOwn[0], ap.nodeIdx[0] = -1, -1
		for j, sl := range slots {
			if sl.node < 0 {
				continue
			}
			h := spec.hubs[j]
			ap.nodeOwn[sl.node], ap.nodeIdx[sl.node] = h, -1
			ap.base[h], ap.start[h] = sl.base, sl.lo
			for i := sl.lo; i < sl.hi; i++ {
				ap.nodeOwn[sl.base+(i-sl.lo)] = h
				ap.nodeIdx[sl.base+(i-sl.lo)] = i
			}
		}
		hg.prov = ap
	}
	return hg
}

// buildSourceCenter solves §8.1's G_s for one source s: d(s, c, e) for
// every center c and every edge e among the last Budget(priority(c))
// edges of the canonical s→c path (the edges "nearest c", the only ones
// the MTC assembly ever queries — Lemma 18/20), seeded with the §7.1
// small values. ct is the center family's hub table.
func buildSourceCenter(ps *ssrp.PerSource, ctr *Centers, ct *hubTable, scr *engine.Scratch) *hubGraph {
	return solveHubGraph(sourceCenterSpec(ps, ctr, ct), scr)
}

// sourceCenterSpec describes source ps.S's G_s.
func sourceCenterSpec(ps *ssrp.PerSource, ctr *Centers, ct *hubTable) hubSpec {
	return hubSpec{
		g: ps.Sh.G, anc: ps.AncS,
		hubs: ctr.List, pos: ctr.index, table: ct, hubTree: ctr.Tree,
		window: func(c, l int32) (int32, int32) {
			return max(0, l-ctr.Budget(ctr.Priority(c))), l
		},
		seed: func(c, i, _ int32) (int32, bool) {
			w := ps.Small.Value(c, int(i))
			return w, w < rp.Inf
		},
		track: ps.TrackPaths,
	}
}

// dist returns d(x, h, e) for a graph edge e: 0 at the root, the
// canonical |xh| when e is off the x→h path, the solved value when e is
// covered, rp.Inf when h is unreachable or e lies outside h's window
// (the lemmas make that case irrelevant w.h.p.).
func (hg *hubGraph) dist(h, e int32) int32 {
	tree := hg.anc.Tree()
	if h == tree.Root {
		return 0
	}
	if !tree.Reachable(h) {
		return rp.Inf
	}
	child, ok := tree.ChildEndpoint(hg.g, e)
	if !ok || !hg.anc.IsAncestor(child, h) {
		return tree.Dist[h]
	}
	k := hg.pos[h]
	if k < 0 {
		return rp.Inf
	}
	// e's index on the x→h path is depth(child)−1 in T_x.
	off := tree.Dist[child] - 1 - hg.start[k]
	if off < 0 || off >= int32(len(hg.rows[k])) {
		return rp.Inf
	}
	return hg.rows[k][off]
}

// path expands a d(x,h,e)-realizing walk (x … h) through the retained
// parent chains. seedWalk expands a [x]→[h,e] seed arc for the covered
// edge e at index i into the walk its weight stands for.
func (hg *hubGraph) path(h, e int32, seedWalk func(h, i, e int32) ([]int32, error)) ([]int32, error) {
	tree := hg.anc.Tree()
	if h == tree.Root {
		return []int32{h}, nil
	}
	child, ok := tree.ChildEndpoint(hg.g, e)
	if !ok || !hg.anc.IsAncestor(child, h) {
		return tree.PathTo(h), nil // canonical x→h avoids e outright
	}
	if hg.prov == nil {
		return nil, fmt.Errorf("msrp: hub-graph provenance missing for root %d (bug: solve did not track)", tree.Root)
	}
	node, err := hg.prov.node(h, tree.Dist[child]-1)
	if err != nil {
		return nil, err
	}
	return hg.expand(node, seedWalk)
}

// expand expands the shortest path to the given node into the graph
// walk it stands for. Arc decoding is by node identity: [x]→[h] arcs are
// canonical prefixes in T_x, [x]→[h,e] arcs are seed walks, and
// hub-to-hub arcs are canonical legs in the predecessor hub's BFS tree.
func (hg *hubGraph) expand(node int32, seedWalk func(h, i, e int32) ([]int32, error)) ([]int32, error) {
	ap, tree := hg.prov, hg.anc.Tree()
	own, idx, par := ap.nodeOwn[node], ap.nodeIdx[node], ap.parent[node]
	switch {
	case par < 0:
		return nil, fmt.Errorf("msrp: hub-graph node %d of root %d has no parent (unreachable?)", node, tree.Root)
	case par == 0 && idx < 0:
		return tree.PathTo(own), nil
	case par == 0:
		return seedWalk(own, idx, treeEdgeAt(tree, own, idx))
	}
	prefix, err := hg.expand(par, seedWalk)
	if err != nil {
		return nil, err
	}
	return appendLeg(prefix, hg.hubTree[ap.nodeOwn[par]].PathTo(own)), nil
}

// treeEdgeAt returns the edge id at position j (0-based from the root)
// of the canonical tree path to v.
func treeEdgeAt(t *bfs.Tree, v int32, j int32) int32 {
	x := v
	for d := t.Dist[v] - 1; d > j; d-- {
		x = t.Parent[x]
	}
	return t.ParentEdge[x]
}

// auxProv is the retained provenance of one hub graph: the parent
// chains plus the node decode tables that turn a node id back into its
// (hub, path-edge index) meaning. 12 bytes per node, immutable after
// the build, byte-accounted into Provenance.Bytes.
type auxProv struct {
	parent  []int32
	nodeOwn []int32 // hub per node; -1 for node 0
	nodeIdx []int32 // covered path-edge index per [h,e] node; -1 for [h] nodes
	base    map[int32]int32
	start   map[int32]int32
}

// node maps (hub, covered index) back to the [hub, e] node id.
func (ap *auxProv) node(own, i int32) (int32, error) {
	base, ok := ap.base[own]
	if !ok {
		return 0, fmt.Errorf("msrp: no aux block for owner %d", own)
	}
	n := base + (i - ap.start[own])
	if n < base || int(n) >= len(ap.parent) || ap.nodeOwn[n] != own {
		return 0, fmt.Errorf("msrp: index %d outside owner %d's aux block", i, own)
	}
	return n, nil
}

func (ap *auxProv) bytes() int64 {
	if ap == nil {
		return 0
	}
	return 12*int64(len(ap.parent)) + 24*int64(len(ap.base))
}
