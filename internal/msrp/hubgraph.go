package msrp

import (
	"fmt"

	"msrp/internal/bfs"
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
	// in hubs (-1 otherwise). hubTree and hubAnc give each hub's BFS
	// tree and ancestry: the |h'h| weights, the e ∉ h'h test, and the
	// h'→h legs of an expanded path.
	hubs    []int32
	pos     []int32
	hubTree map[int32]*bfs.Tree
	hubAnc  map[int32]*lca.Ancestry

	// window returns the covered index range [lo, hi) of the canonical
	// x→h path of length l.
	window func(h, l int32) (lo, hi int32)
	// seed returns the [x]→[h,e] arc weight for the covered edge e at
	// index i, if there is one.
	seed func(h, i, e int32) (int32, bool)
	// track retains the parent chains (auxProv) for path expansion.
	track bool
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
func solveHubGraph(spec hubSpec, scr *engine.Scratch) *hubGraph {
	g := spec.g
	tree := spec.anc.Tree()
	type hubInfo struct {
		h      int32
		node   int32         // [h] node id
		base   int32         // first [h,e] node id
		lo, hi int32         // covered path-edge indices [lo, hi)
		edges  []int32       // covered edges e_lo … e_{hi−1}
		dist   []int32       // |h ·| in h's own tree
		anc    *lca.Ancestry // ancestry of h's own tree
	}
	infos := make([]hubInfo, 0, len(spec.hubs))
	next := int32(1)
	for _, h := range spec.hubs {
		if h == tree.Root || !tree.Reachable(h) {
			continue
		}
		infos = append(infos, hubInfo{h: h, node: next, dist: spec.hubTree[h].Dist, anc: spec.hubAnc[h]})
		next++
	}
	for idx := range infos {
		in := &infos[idx]
		l := tree.Dist[in.h]
		in.lo, in.hi = spec.window(in.h, l)
		in.base = next
		next += in.hi - in.lo
		// Walk up from h collecting the covered edges of its path.
		in.edges = scr.Int32(int(in.hi - in.lo))
		x := in.h
		for i := l - 1; i >= in.lo; i-- {
			if i < in.hi {
				in.edges[i-in.lo] = tree.ParentEdge[x]
			}
			x = tree.Parent[x]
		}
	}
	total := int(next)

	bld := ssrp.AttachedBuilder(scr, total, total*4)
	for idx := range infos {
		bld.AddArc(0, infos[idx].node, tree.Dist[infos[idx].h])
	}
	for idx := range infos {
		in := &infos[idx]
		for i := in.lo; i < in.hi; i++ {
			e := in.edges[i-in.lo]
			node := in.base + (i - in.lo)
			if w, ok := spec.seed(in.h, i, e); ok {
				bld.AddArc(0, node, w)
			}
			child, _ := tree.ChildEndpoint(g, e)
			for jdx := range infos {
				in2 := &infos[jdx]
				if in2.h == in.h {
					continue
				}
				d := in2.dist[in.h] // |h'h|
				if d < 0 || in2.anc.EdgeOnRootPath(g, e, in.h) {
					continue // e on the canonical h'→h path
				}
				if !spec.anc.IsAncestor(child, in2.h) {
					// e not on x→h': the [h'] node's canonical prefix
					// avoids e.
					bld.AddArc(in2.node, node, d)
				} else if i >= in2.lo && i < in2.hi {
					// e on x→h' within the covered block of h'.
					bld.AddArc(in2.base+(i-in2.lo), node, d)
				}
			}
		}
	}
	hg := &hubGraph{
		g: g, anc: spec.anc, pos: spec.pos, hubTree: spec.hubTree,
		start: make([]int32, len(spec.hubs)),
		rows:  make([][]int32, len(spec.hubs)),
		nodes: total,
		arcs:  bld.NumArcs(),
	}
	res := bld.FinalizeScratch(scr).RunScratch(0, scr)

	for idx := range infos {
		in := &infos[idx]
		row := make([]int32, in.hi-in.lo)
		for off := range row {
			row[off] = int32(min(res.Dist[in.base+int32(off)], int64(rp.Inf)))
		}
		k := spec.pos[in.h]
		hg.start[k], hg.rows[k] = in.lo, row
	}
	if spec.track {
		ap := &auxProv{
			parent:  append([]int32(nil), res.Parent...),
			nodeOwn: make([]int32, total),
			nodeIdx: make([]int32, total),
			base:    make(map[int32]int32, len(infos)),
			start:   make(map[int32]int32, len(infos)),
		}
		ap.nodeOwn[0], ap.nodeIdx[0] = -1, -1
		for idx := range infos {
			in := &infos[idx]
			ap.nodeOwn[in.node], ap.nodeIdx[in.node] = in.h, -1
			ap.base[in.h], ap.start[in.h] = in.base, in.lo
			for i := in.lo; i < in.hi; i++ {
				ap.nodeOwn[in.base+(i-in.lo)] = in.h
				ap.nodeIdx[in.base+(i-in.lo)] = i
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
// small values.
func buildSourceCenter(ps *ssrp.PerSource, ctr *Centers, scr *engine.Scratch) *hubGraph {
	return solveHubGraph(hubSpec{
		g: ps.Sh.G, anc: ps.AncS,
		hubs: ctr.List, pos: ctr.index, hubTree: ctr.Tree, hubAnc: ctr.Anc,
		window: func(c, l int32) (int32, int32) {
			return max(0, l-ctr.Budget(ctr.Priority(c))), l
		},
		seed: func(c, i, _ int32) (int32, bool) {
			w := ps.Small.Value(c, int(i))
			return w, w < rp.Inf
		},
		track: ps.TrackPaths,
	}, scr)
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
