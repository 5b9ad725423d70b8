package msrp

import (
	"context"
	"slices"
	"sync/atomic"
	"time"

	"msrp/internal/engine"
	"msrp/internal/rp"
	"msrp/internal/ssrp"
)

// seedReader is the §8.2.1 seed table as the §8.2.2 build reads it:
// seed(c, r, e) for the center at position ci of Centers.List, the
// landmark at position k of the landmark list, and the index i of e on
// T_c's c→r path. The solve always passes the merged *seedRows; the
// interface exists as the cancellation test's seam, a reader that
// cancels the solve's context on its first lookup.
type seedReader interface {
	Get(ci, k, i int32) (int32, bool)
}

// seedRows is the §8.2.1 seed table, laid out like G_c's [r,e] nodes:
// for center c and landmark r, one cell per edge among the first
// min(Budget(priority(c)), |cr|) edges of T_c's c→r path, which are
// exactly the edges G_c covers. A cell holds the shortest c→r suffix of
// any source's small replacement path that passes c and avoids the
// edge, rp.Inf where none does; the cell becomes G_c's [c]→[r,e] arc.
// Small replacement paths have no long suffix for the landmark
// sampling to hit, so these concrete e-avoiding walks must be seeded.
//
// The paper keeps the seeds in a cuckoo hash for O(1) worst-case
// lookups (Lemma 5). G_c only ever reads its own [r,e] nodes, so an
// array over that node space gives the same bound with no hashing, and
// offers G_c cannot read are never stored.
type seedRows struct {
	lms int // landmarks per center
	// off[ci*(lms+1)+k] is the first cell of landmark k in center ci's
	// block and off[ci*(lms+1)+k+1] ends it: per-center offsets, int32
	// like G_c's node ids.
	off []int32
	// cells[ci] is center ci's block; nil until merge.
	cells [][]int32
	count int // finite cells
}

// seedOffer is one small path's bid for a seed cell: the c→r suffix
// length w for cell `cell` of center position ci's block.
type seedOffer struct{ ci, cell, w int32 }

// newSeedRows lays out the cells of every (center, landmark) pair.
func newSeedRows(landmarks []int32, ctr *Centers) *seedRows {
	lms := len(landmarks)
	sr := &seedRows{lms: lms, off: make([]int32, len(ctr.List)*(lms+1)), cells: make([][]int32, len(ctr.List))}
	for ci, c := range ctr.List {
		tc, budget := ctr.Tree[c], ctr.Budget(ctr.Priority(c))
		block := sr.off[ci*(lms+1) : (ci+1)*(lms+1)]
		for k, r := range landmarks {
			// No cells for c itself (|cc| = 0) or for a landmark T_c
			// does not reach (Dist −1): G_c gives neither a node.
			block[k+1] = block[k] + max(0, min(budget, tc.Dist[r]))
		}
	}
	return sr
}

// span returns the cell range [lo, hi) of landmark k in center ci's
// block.
func (sr *seedRows) span(ci, k int32) (lo, hi int32) {
	b := int(ci)*(sr.lms+1) + int(k)
	return sr.off[b], sr.off[b+1]
}

// row returns landmark k's cells in center ci's block: cell i belongs
// to the edge at index i of T_c's c→r path.
func (sr *seedRows) row(ci, k int32) []int32 {
	lo, hi := sr.span(ci, k)
	return sr.cells[ci][lo:hi]
}

// Get returns seed(c, r, e_i) and whether some small path offers it.
func (sr *seedRows) Get(ci, k, i int32) (int32, bool) {
	w := sr.row(ci, k)[i]
	return w, w < rp.Inf
}

// merge folds the per-source shards into the cells with min, in source
// order. The solve calls it once its pipelined build/enumerate stage
// has finished every source (its only cross-source barrier). min is
// commutative and idempotent, so the cells are identical at any worker
// count and schedule.
func (sr *seedRows) merge(shards [][]seedOffer) {
	for ci := range sr.cells {
		end := sr.off[ci*(sr.lms+1)+sr.lms]
		sr.cells[ci] = slices.Repeat([]int32{rp.Inf}, int(end))
	}
	for _, shard := range shards {
		for _, o := range shard {
			cell := &sr.cells[o.ci][o.cell]
			if *cell == rp.Inf {
				sr.count++
			}
			*cell = min(*cell, o.w)
		}
	}
}

// Bytes returns the table's footprint: cells and offsets.
func (sr *seedRows) Bytes() int64 {
	b := 4 * int64(len(sr.off))
	for _, row := range sr.cells {
		b += 4 * int64(len(row))
	}
	return b
}

// buildSeedShard implements §8.2.1 for one source: it enumerates every
// small replacement path to every landmark r (the §7.1 Dijkstra's
// predecessor chains), and for every center c the path passes before r
// it offers the c→r suffix length as seed(c, r, e). Only offers G_c
// can read are kept: e must lie on T_c's c→r path, within c's budget.
// e's child endpoint in T_c and its stamps come from the centers' hub
// table ct. The path and edge expansions run through scratch buffers
// sized once per item, so the Θ(n) sweep allocates only the offers.
func buildSeedShard(ps *ssrp.PerSource, ctr *Centers, ct *hubTable, seed *seedRows, sc *engine.Scratch) []seedOffer {
	g := ps.Sh.G
	n := g.NumVertices()
	edgeBuf := sc.Int32(n) // canonical tree paths have < n edges
	// Small replacement paths are walks — prefix plus near-hop tail can
	// exceed n vertices — so give the buffer slack; PathVerticesInto
	// falls back to allocating only beyond 2n, which no walk reaches at
	// small-path lengths (≤ |sr| + 2X < n each for prefix and tail).
	pathBuf := sc.Int32(2*n + 2)
	ts := ps.Ts
	var offers []seedOffer
	for k, r := range ps.Sh.List {
		if r == ps.S || !ts.Reachable(r) {
			continue
		}
		l := ts.Dist[r]
		edges := ts.PathEdgesInto(edgeBuf, r)
		rr := ct.row(r)
		for i := ps.Small.NearStart(r); i < l; i++ {
			if ps.Small.Value(r, int(i)) >= rp.Inf {
				continue
			}
			path := ps.Small.PathVerticesInto(pathBuf, r, int(i))
			if path == nil {
				continue
			}
			e := edges[i]
			u, v := g.EdgeEndpoints(int(e))
			ru, rv := ct.row(u), ct.row(v)
			last := len(path) - 1
			for pos, c := range path[:last] { // a suffix of length 0 (c = r) is trivial
				ci := ctr.Index(c)
				if ci < 0 {
					continue
				}
				var child hubCell // e's child endpoint in T_c
				switch e {
				case rv[ci].edge:
					child = rv[ci]
				case ru[ci].edge:
					child = ru[ci]
				default:
					continue // e is not a T_c edge
				}
				// e lies on T_c's c→r path iff its child endpoint is an
				// ancestor of r (never when T_c does not reach r), at
				// index depth(child)−1; the block ends at c's budget.
				if d := rr[ci]; child.tin > d.tin || d.tout > child.tout {
					continue
				}
				lo, hi := seed.span(ci, int32(k))
				if j := child.dist - 1; j < hi-lo {
					offers = append(offers, seedOffer{ci: ci, cell: lo + j, w: int32(last - pos)})
				}
			}
		}
	}
	return offers
}

// centerLandmark holds the §8.2.2 output: one solved G_c per center c,
// giving d(c, r, e) for every landmark r and every edge e among the
// first Budget(priority(c)) edges of the canonical (T_c) c→r path.
//
// Storage is dense: graphs are indexed by center position
// (Centers.Index) and each graph's rows by landmark position (lmIdx),
// so the lookup on the assembly's innermost candidate loop pays no map
// lookups, and the fan-out's workers write their centers' slots
// race-free.
type centerLandmark struct {
	ctr *Centers

	// lmIdx[v] is v's position in sh.List, -1 for non-landmarks.
	lmIdx []int32

	// graphs[ci] is G_c for c = ctr.List[ci].
	graphs []*hubGraph

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

// at returns center c's solved G_c.
func (cl *centerLandmark) at(c int32) *hubGraph { return cl.graphs[cl.ctr.Index(c)] }

// buildCenterLandmark solves every per-center hub graph G_c (§8.2.2,
// Lemmas 21–22) once the seed table is merged: root c in T_c, the
// landmarks as hubs, each window the first Budget(priority(c)) edges of
// the c→r path, and the §8.2.1 entry seed(c,r,e) — a small path through
// c — as the [c]→[r,e] arc. Centers are independent, so the stage fans
// out across Params.Parallelism workers, each center's graph landing in
// its own slot; ctx is observed between centers, so a cancelled solve
// stops after the items already in flight instead of running all |C|
// Dijkstras to completion. The landmarks' hub table is built once for
// the fan-out and dropped with it.
func buildCenterLandmark(ctx context.Context, sh *ssrp.Shared, ctr *Centers, seed seedReader) (*centerLandmark, error) {
	cl := &centerLandmark{
		ctr:    ctr,
		lmIdx:  make([]int32, sh.G.NumVertices()),
		graphs: make([]*hubGraph, len(ctr.List)),
	}
	for v := range cl.lmIdx {
		cl.lmIdx[v] = -1
	}
	for i, r := range sh.List {
		cl.lmIdx[r] = int32(i)
	}
	lt := newHubTable(sh.G.NumVertices(), sh.List, sh.Tree, sh.Anc)
	if err := sh.Pool.RunScratchCtx(ctx, len(ctr.List), func(ci int, sc *engine.Scratch) {
		start := time.Now()
		hg := solveHubGraph(cl.spec(sh, ctr.List[ci], lt, seed), sc)
		cl.graphs[ci] = hg
		cl.nodes.Add(int64(hg.nodes))
		cl.arcs.Add(int64(hg.arcs))
		cl.buildNanos.Add(time.Since(start).Nanoseconds())
	}); err != nil {
		return nil, err
	}
	return cl, nil
}

// spec describes center c's G_c over the landmarks' hub table lt.
func (cl *centerLandmark) spec(sh *ssrp.Shared, c int32, lt *hubTable, seed seedReader) hubSpec {
	return hubSpec{
		g: sh.G, anc: cl.ctr.Anc[c],
		hubs: sh.List, pos: cl.lmIdx, table: lt, hubTree: sh.Tree,
		budget: cl.ctr.Budget(cl.ctr.Priority(c)),
		seed:   seed, ci: cl.ctr.Index(c),
		track: sh.Params.TrackPaths,
	}
}
