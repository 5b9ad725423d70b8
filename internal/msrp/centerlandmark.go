package msrp

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"msrp/internal/cuckoo"
	"msrp/internal/engine"
	"msrp/internal/rp"
	"msrp/internal/ssrp"
)

// seedReader is the §8.2.1 seed table as the §8.2.2 build reads it:
// O(1) worst-case keyed lookups plus the footprint accounting. The
// solve always passes the merged *cuckoo.Table; the interface exists as
// the cancellation test's seam, a reader that cancels the solve's
// context on its first lookup.
type seedReader interface {
	Get(key uint64) (int32, bool)
	Len() int
	Bytes() int64
}

// Key packing for the (center, landmark, edge) seed table (§8.2.1).
// 21 bits for each vertex id and 22 for the edge id fit exactly in 64.
const (
	vertexBits = 21
	edgeBits   = 22
	maxVertex  = 1 << vertexBits
	maxEdge    = 1 << edgeBits
)

func packCRE(c, r, e int32) uint64 {
	return uint64(c)<<(vertexBits+edgeBits) | uint64(r)<<edgeBits | uint64(e)
}

// checkPackable rejects graphs too large for the 64-bit key layout
// (2M vertices / 4M edges — far beyond anything this harness runs).
func checkPackable(n, m int) error {
	if n >= maxVertex || m >= maxEdge {
		return fmt.Errorf("msrp: graph too large for key packing (n=%d m=%d)", n, m)
	}
	return nil
}

// buildSeedTable implements §8.2.1: enumerate every small replacement
// path from every source to every landmark (the §7.1 Dijkstra's
// predecessor chains), and for every center c sitting on such a path
// record the length of its c→r suffix. The table entry (c, r, e) → w
// later becomes the [c]→[r,e] arc of G_c: a concrete e-avoiding c→r
// walk, needed because small replacement paths have no long suffix for
// the landmark sampling to hit.
//
// The table is the paper's designated cuckoo-hash use: Θ(σn) paths may
// produce entries and lookups must stay O(1) worst case during the
// G_c construction (internal/cuckoo, Lemma 5).
//
// The build is sharded: sources are independent during enumeration, so
// each engine item fills a private presized shard, and the shards are
// merged into one presized table afterwards. Because the merged value
// for a key is the minimum over all shards and min is commutative and
// idempotent, the merged *contents* are identical for every worker
// count and schedule; because shards are merged in source order and
// each shard's build is deterministic, even the merged table's layout
// is fixed. The returned rehash count (shards + merge) is the E9/E13
// cascade observability: with presizing it stays at zero.
func buildSeedTable(ctx context.Context, sh *ssrp.Shared, perSrc []*ssrp.PerSource, ctr *Centers) (*cuckoo.Table, int, error) {
	shards := make([]*cuckoo.Table, len(perSrc))
	if err := sh.Pool.RunScratchCtx(ctx, len(perSrc), func(i int, sc *engine.Scratch) {
		shards[i] = buildSeedShard(perSrc[i], ctr, sc)
	}); err != nil {
		return nil, 0, err
	}
	merged, rehashes := mergeSeedShards(shards)
	return merged, rehashes, nil
}

// mergeSeedShards folds the per-source shards into one presized table
// with MinPut, in source order, and returns it with the total rehash
// count (shards + merge) — the E9/E13 cascade observability. The solve
// calls this once its pipelined build/enumerate stage has finished
// every source (its only cross-source barrier); buildSeedTable wraps it
// for the seed-table tests.
func mergeSeedShards(shards []*cuckoo.Table) (*cuckoo.Table, int) {
	rehashes := 0
	total := 0
	for _, shard := range shards {
		total += shard.Len()
		rehashes += shard.Rehashes()
	}
	merged := cuckoo.New(total)
	for _, shard := range shards {
		shard.Range(func(key uint64, val int32) bool {
			merged.MinPut(key, val)
			return true
		})
	}
	return merged, rehashes + merged.Rehashes()
}

// buildSeedShard enumerates one source's small paths into a private
// table presized by estimateSeedEntries. The path and edge expansions
// run through scratch buffers sized once per item, so the Θ(n) sweep
// performs no per-path allocation.
func buildSeedShard(ps *ssrp.PerSource, ctr *Centers, sc *engine.Scratch) *cuckoo.Table {
	table := cuckoo.New(estimateSeedEntries(ps, ctr))
	n := ps.Sh.G.NumVertices()
	edgeBuf := sc.Int32(n) // canonical tree paths have < n edges
	// Small replacement paths are walks — prefix plus near-hop tail can
	// exceed n vertices — so give the buffer slack; PathVerticesInto
	// falls back to allocating only beyond 2n, which no walk reaches at
	// small-path lengths (≤ |sr| + 2X < n each for prefix and tail).
	pathBuf := sc.Int32(2*n + 2)
	ts := ps.Ts
	for _, r := range ps.Sh.List {
		if r == ps.S || !ts.Reachable(r) {
			continue
		}
		l := ts.Dist[r]
		edges := ts.PathEdgesInto(edgeBuf, r)
		for i := ps.Small.NearStart(r); i < l; i++ {
			if ps.Small.Value(r, int(i)) >= rp.Inf {
				continue
			}
			path := ps.Small.PathVerticesInto(pathBuf, r, int(i))
			if path == nil {
				continue
			}
			e := edges[i]
			last := len(path) - 1
			for pos, w := range path {
				if pos == last {
					break // suffix of length 0 (c = r) is trivial
				}
				if !ctr.IsCenter(w) {
					continue
				}
				table.MinPut(packCRE(w, r, e), int32(last-pos))
			}
		}
	}
	return table
}

// estimateSeedEntries predicts one source's seed-table contribution so
// the shard can be presized (no growth-rehash cascade mid-build). Each
// landmark r offers min(nearEdgeCap, |sr|) small paths of length at
// most |sr| + 2X, and a vertex on such a path is a center with
// frequency ≈ |C|/n, so the expected entries per path are its length
// times that density. Overestimating only costs slack memory; the
// estimate is deliberately generous.
func estimateSeedEntries(ps *ssrp.PerSource, ctr *Centers) int {
	n := ps.Sh.G.NumVertices()
	density := float64(len(ctr.List)) / float64(n)
	est := 0.0
	for _, r := range ps.Sh.List {
		if r == ps.S || !ps.Ts.Reachable(r) {
			continue
		}
		l := float64(ps.Ts.Dist[r])
		paths := l - float64(ps.Small.NearStart(r))
		est += paths * (1 + density*(l+2*ps.Sh.X))
	}
	return int(est)
}

// centerLandmark holds the §8.2.2 output: d(c, r, e) for every center
// c, landmark r, and edge e among the first Budget(priority(c)) edges
// of the canonical (T_c) c→r path.
//
// Storage is dense: rows are indexed by center position (Centers.Index)
// and landmark position (lmIdx) instead of the map-of-maps the first
// implementation used — dCR sits on the assembly's innermost candidate
// loop, where two map lookups per call were measurable overhead, and
// dense per-center slots let the fan-out's workers write their centers'
// output race-free.
type centerLandmark struct {
	ctr *Centers

	// lmIdx[v] is v's position in sh.List, -1 for non-landmarks.
	lmIdx []int32

	// rows[ci][li][j] = d(c, r, e_j) for c = ctr.List[ci], r =
	// sh.List[li], and e_j the j-th edge of the T_c path from c toward
	// r, j < min(budget, |cr|). nil rows mean r == c or unreachable.
	rows [][][]int32

	// prov[ci] retains G_c's parent chains and node decode tables under
	// Params.TrackPaths (the provenance plane's §8.2.2 layer); nil
	// otherwise.
	prov []*auxProv

	// Aggregate aux-graph size counters (all G_c combined, E9) and the
	// per-item wall time sum — atomics because the fan-out's workers
	// finish centers concurrently.
	nodes      atomic.Int64
	arcs       atomic.Int64
	buildNanos atomic.Int64
}

// NumNodes and NumArcs expose the aggregate G_c sizes after the builds
// have completed.
func (cl *centerLandmark) NumNodes() int64 { return cl.nodes.Load() }
func (cl *centerLandmark) NumArcs() int64  { return cl.arcs.Load() }

// BuildTime returns the per-center build wall time summed over items —
// the StageCenterLandmark measure, unaffected by how many workers ran
// the fan-out.
func (cl *centerLandmark) BuildTime() time.Duration {
	return time.Duration(cl.buildNanos.Load())
}

// buildCenterLandmark constructs and solves every per-center auxiliary
// graph G_c (§8.2.2) once the seed table is merged. Centers are
// independent, so the stage fans out across Params.Parallelism
// workers, each center's output landing in its own dense slot; ctx is
// observed between centers, so a cancelled solve stops after the items
// already in flight instead of running all |C| Dijkstras to
// completion.
//
// Node space of G_c: [c] (node 0), [r] per landmark, [r,e] per covered
// (landmark, prefix-edge) pair. Arcs (Lemma 21/22 case analysis):
//
//	[c]  → [r]      weight |cr|
//	[c]  → [r,e]    weight seed(c,r,e)   (§8.2.1 small path through c)
//	[r'] → [r,e]    weight |r'r|         if e ∉ cr' and e ∉ r'r
//	[r',e] → [r,e]  weight |r'r|         if [r',e] exists and e ∉ r'r
//
// All positions are measured in T_c, where the shared-prefix identity
// again makes an edge's index the same on every path through it.
func buildCenterLandmark(ctx context.Context, sh *ssrp.Shared, ctr *Centers, seed seedReader) (*centerLandmark, error) {
	cl := &centerLandmark{
		ctr:   ctr,
		lmIdx: make([]int32, sh.G.NumVertices()),
		rows:  make([][][]int32, len(ctr.List)),
		prov:  make([]*auxProv, len(ctr.List)),
	}
	for v := range cl.lmIdx {
		cl.lmIdx[v] = -1
	}
	for i, r := range sh.List {
		cl.lmIdx[r] = int32(i)
	}
	if err := sh.Pool.RunScratchCtx(ctx, len(ctr.List), func(ci int, sc *engine.Scratch) {
		start := time.Now()
		rows, ap, sizes := cl.buildOne(sh, ctr.List[ci], seed, sc)
		cl.rows[ci] = rows
		cl.prov[ci] = ap
		cl.nodes.Add(sizes[0])
		cl.arcs.Add(sizes[1])
		cl.buildNanos.Add(time.Since(start).Nanoseconds())
	}); err != nil {
		return nil, err
	}
	return cl, nil
}

// buildOne builds and solves G_c, returning the d(c,r,·) rows (dense,
// indexed by landmark position in sh.List), the retained provenance
// (TrackPaths only, else nil), and the graph's (nodes, arcs) size pair.
// It must not write shared state outside c's own slots: the fan-out
// runs it concurrently across centers. sc backs the transient arc
// builder and covered-edge buffers.
func (cl *centerLandmark) buildOne(sh *ssrp.Shared, c int32, seed seedReader, sc *engine.Scratch) ([][]int32, *auxProv, [2]int64) {
	g := sh.G
	ctr := cl.ctr
	tc := ctr.Tree[c]
	ancC := ctr.Anc[c]
	budget := ctr.Budget(ctr.Priority(c))

	type lmInfo struct {
		r        int32
		li       int32 // r's position in sh.List
		node     int32
		base     int32
		count    int32
		pathEdge []int32 // covered prefix edges e_0..e_{count-1} in T_c
	}
	infos := make([]lmInfo, 0, len(sh.List))
	next := int32(1)
	for li, r := range sh.List {
		if r == c || !tc.Reachable(r) {
			continue
		}
		infos = append(infos, lmInfo{r: r, li: int32(li), node: next})
		next++
	}
	for idx := range infos {
		in := &infos[idx]
		l := tc.Dist[in.r]
		count := budget
		if l < count {
			count = l
		}
		in.count = count
		in.base = next
		next += count
		// The covered edges are the T_c path *prefix*: walk up from r
		// and keep the first `count` edges (positions 0..count-1 from
		// the c side).
		in.pathEdge = sc.Int32(int(count))
		x := in.r
		for j := l - 1; j >= 0; j-- {
			if j < count {
				in.pathEdge[j] = tc.ParentEdge[x]
			}
			x = tc.Parent[x]
		}
	}
	total := int(next)

	bld := ssrp.AttachedBuilder(sc, total, total*4)
	for idx := range infos {
		bld.AddArc(0, infos[idx].node, tc.Dist[infos[idx].r])
	}
	for idx := range infos {
		in := &infos[idx]
		for j := int32(0); j < in.count; j++ {
			e := in.pathEdge[j]
			node := in.base + j
			if w, ok := seed.Get(packCRE(c, in.r, e)); ok {
				bld.AddArc(0, node, w)
			}
			for jdx := range infos {
				in2 := &infos[jdx]
				r2 := in2.r
				if r2 == in.r {
					continue
				}
				dRR := sh.Tree[r2].Dist[in.r] // |r'r|
				if dRR < 0 {
					continue
				}
				if sh.Anc[r2].EdgeOnRootPath(g, e, in.r) {
					continue // e on the canonical r'→r path
				}
				if !ancC.EdgeOnRootPath(g, e, r2) {
					bld.AddArc(in2.node, node, dRR)
				} else if j < in2.count {
					bld.AddArc(in2.base+j, node, dRR)
				}
			}
		}
	}
	sizes := [2]int64{int64(total), int64(bld.NumArcs())}
	// G_c is build-run-discard (only the rows below survive), so both
	// the CSR and the Dijkstra result live in the worker scratch.
	res := bld.FinalizeScratch(sc).RunScratch(0, sc)

	rows := make([][]int32, len(sh.List))
	for idx := range infos {
		in := &infos[idx]
		row := make([]int32, in.count)
		for j := int32(0); j < in.count; j++ {
			d := res.Dist[in.base+j]
			if d >= int64(rp.Inf) {
				row[j] = rp.Inf
			} else {
				row[j] = int32(d)
			}
		}
		rows[in.li] = row
	}
	var ap *auxProv
	if sh.Params.TrackPaths {
		ap = &auxProv{
			parent:  append([]int32(nil), res.Parent...),
			nodeOwn: make([]int32, total),
			nodeIdx: make([]int32, total),
			base:    make(map[int32]int32, len(infos)),
			start:   make(map[int32]int32, len(infos)),
		}
		ap.nodeOwn[0], ap.nodeIdx[0] = -1, -1
		for idx := range infos {
			in := &infos[idx]
			ap.nodeOwn[in.node], ap.nodeIdx[in.node] = in.r, -1
			ap.base[in.r], ap.start[in.r] = in.base, 0 // G_c covers the prefix
			for j := int32(0); j < in.count; j++ {
				ap.nodeOwn[in.base+j] = in.r
				ap.nodeIdx[in.base+j] = j
			}
		}
	}
	return rows, ap, sizes
}

// dCR returns d(c, r, e) where e is a graph edge: |cr| when e is off
// the canonical (T_c) c→r path, the §8.2.2 value when covered by c's
// budget, rp.Inf otherwise.
func (cl *centerLandmark) dCR(sh *ssrp.Shared, c, r int32, e int32) int32 {
	if c == r {
		return 0
	}
	tc := cl.ctr.Tree[c]
	if !tc.Reachable(r) {
		return rp.Inf
	}
	if !cl.ctr.Anc[c].EdgeOnRootPath(sh.G, e, r) {
		return tc.Dist[r]
	}
	// e's index on the T_c path toward r is depth(child)−1 in T_c.
	child, ok := tc.ChildEndpoint(sh.G, e)
	if !ok {
		return rp.Inf
	}
	j := tc.Dist[child] - 1
	ci, li := cl.ctr.Index(c), cl.lmIdx[r]
	if ci < 0 || li < 0 {
		return rp.Inf
	}
	row := cl.rows[ci][li]
	if j < 0 || j >= int32(len(row)) {
		return rp.Inf
	}
	return row[j]
}

// provAt returns center c's retained §8.2.2 provenance, or nil.
func (cl *centerLandmark) provAt(c int32) *auxProv {
	ci := cl.ctr.Index(c)
	if ci < 0 {
		return nil
	}
	return cl.prov[ci]
}
