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
	table := cuckoo.New(estimateSeedEntries(ps))
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

// estimateSeedEntries bounds one source's seed-table contribution so
// the shard can be presized (no growth-rehash cascade mid-build). A
// small path of length w adds at most one entry per vertex before r,
// so the sum of the enumerated small values is an upper bound. On E8's
// seed-300 graph it is 1.4× the real count (TestSeedEstimateCoversActual
// holds it within 2×).
func estimateSeedEntries(ps *ssrp.PerSource) int {
	est := 0
	for _, r := range ps.Sh.List {
		if r == ps.S || !ps.Ts.Reachable(r) {
			continue
		}
		for i := ps.Small.NearStart(r); i < ps.Ts.Dist[r]; i++ {
			if w := ps.Small.Value(r, int(i)); w < rp.Inf {
				est += int(w)
			}
		}
	}
	return est
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
	budget := cl.ctr.Budget(cl.ctr.Priority(c))
	return hubSpec{
		g: sh.G, anc: cl.ctr.Anc[c],
		hubs: sh.List, pos: cl.lmIdx, table: lt, hubTree: sh.Tree,
		window: func(_, l int32) (int32, int32) { return 0, min(budget, l) },
		seed:   func(r, _, e int32) (int32, bool) { return seed.Get(packCRE(c, r, e)) },
		track:  sh.Params.TrackPaths,
	}
}
