package ssrp

import (
	"msrp/internal/dijkstra"
	"msrp/internal/engine"
	"msrp/internal/rp"
)

// ArcBuilderKey is the scratch attachment key under which every
// auxiliary-graph stage keeps its per-worker dijkstra arc builder.
// Sharing one key is deliberate: stages run sequentially within an
// item, and each finalizes (copies out of) the builder before the next
// resets it, so one builder's capacity serves them all.
const ArcBuilderKey = "dijkstra.builder"

// AttachedBuilder returns the per-worker arc builder of sc, reset for a
// graph on n nodes. A nil scratch yields a fresh builder.
func AttachedBuilder(sc *engine.Scratch, n, arcHint int) *dijkstra.Builder {
	if sc == nil {
		return dijkstra.NewBuilder(n, arcHint)
	}
	b := sc.Attach(ArcBuilderKey, func() any { return dijkstra.NewBuilder(0, 0) }).(*dijkstra.Builder)
	b.Reset(n)
	return b
}

// SmallNear is the §7.1 auxiliary graph G_s and its Dijkstra solution.
// It answers, for every target t and every near edge e on the canonical
// s→t path, the length of the best "small" replacement path
// (|st ⋄ e| whenever |st ⋄ e| ≤ |se| + 2X; an upper bound otherwise).
//
// # Node space
//
//	[v]    — one node per graph vertex, id = v.
//	[t,e]  — one node per (target, near path edge); ids are packed
//	         after the vertex nodes, contiguous per target.
//
// # Arcs (each is a real e-avoiding walk extension; see Lemma 10)
//
//	[s] → [v]     weight |sv|   — the canonical prefix, compressed.
//	[v] → [t,e]   weight 1      — if (v,t) ∈ E, (v,t) ≠ e, e ∉ sv path.
//	[v,e] → [t,e] weight 1      — if (v,t) ∈ E, (v,t) ≠ e, and e is a
//	                              near edge on the s→v path.
//
// The (v,t) ≠ e exclusions are our fix to the paper's literal text,
// recorded only here: when e is the last edge of the st path, v's
// edge to t may be e itself.
//
// A key index identity keeps the bookkeeping flat: if a tree edge e of
// T_s lies on the canonical paths of both v and t, it has the same
// 0-based index i on both (canonical tree paths share prefixes), so
// [v,e] is simply v's block at offset i.
type SmallNear struct {
	ps *PerSource

	n        int     // vertex-node count
	teBase   []int32 // per vertex: first node id of its [t,e] block, -1 if none
	startIdx []int32 // per vertex: first near path-edge index (L − nearCount)
	teVertex []int32 // per [t,e] node (offset −n): its target vertex

	res *dijkstra.Result

	// released marks that ReleasePathState dropped the path-expansion
	// state; PathVertices calls are a bug after that point.
	released bool

	// NumNodes and NumArcs record the built auxiliary graph size for
	// the E9 experiment.
	NumNodes int
	NumArcs  int
}

// buildSmallNear constructs the §7.1 auxiliary graph for this source
// and solves it with one Dijkstra run. sc (optional) backs the
// transient arc-builder arrays.
func buildSmallNear(ps *PerSource, sc *engine.Scratch) *SmallNear {
	g := ps.Sh.G
	ts := ps.Ts
	n := g.NumVertices()
	sn := &SmallNear{
		ps:       ps,
		n:        n,
		teBase:   make([]int32, n),
		startIdx: make([]int32, n),
	}

	// Lay out the [t,e] node blocks, bounding the arcs as we go: one
	// [s] → [v] arc per vertex, and at most one arc per neighbor into
	// each [t,e] node.
	next := int32(n)
	arcs := n
	for t := 0; t < n; t++ {
		sn.teBase[t] = -1
		sn.startIdx[t] = 0
		l := ts.Dist[t]
		if l <= 0 {
			continue
		}
		count := int32(ps.Sh.nearEdgeCap)
		if l < count {
			count = l
		}
		sn.teBase[t] = next
		sn.startIdx[t] = l - count
		next += count
		arcs += int(count) * g.Degree(t)
	}
	total := int(next)
	sn.teVertex = make([]int32, total-n)
	for t := 0; t < n; t++ {
		if base := sn.teBase[t]; base >= 0 {
			l := ts.Dist[t]
			for i := sn.startIdx[t]; i < l; i++ {
				sn.teVertex[base+int32(i-sn.startIdx[t])-int32(n)] = int32(t)
			}
		}
	}

	b := AttachedBuilder(sc, total, arcs)
	// [s] → [v] arcs, the compressed canonical prefixes.
	for v := int32(0); v < int32(n); v++ {
		if v != ts.Root && ts.Reachable(v) {
			b.AddArc(ts.Root, v, ts.Dist[v])
		}
	}
	// Per-target near-edge arcs. Walk each target's path from t upward;
	// position i carries edge e_i whose child endpoint is x_{i+1}.
	for t := int32(0); t < int32(n); t++ {
		base := sn.teBase[t]
		if base < 0 {
			continue
		}
		l := ts.Dist[t]
		start := sn.startIdx[t]
		nbrs, ids := g.Neighbors(int(t))
		x := t // x = x_{i+1} while scanning position i
		for i := l - 1; i >= start; i-- {
			e := ts.ParentEdge[x]
			teNode := base + (i - start)
			for j, v := range nbrs {
				ge := ids[j]
				if ge == e || !ts.Reachable(v) {
					continue
				}
				if !ps.AncS.EdgeOnRootPath(g, e, v) {
					b.AddArc(v, teNode, 1)
				} else if i >= sn.startIdx[v] {
					// e is a near edge on the s→v path: its index there
					// is also i (shared-prefix identity), so [v,e] is
					// v's block at offset i.
					b.AddArc(sn.teBase[v]+(i-sn.startIdx[v]), teNode, 1)
				}
			}
			x = ts.Parent[x]
		}
	}
	sn.NumNodes = total
	sn.NumArcs = b.NumArcs()
	// The CSR is discarded after the one Run, so it can live in the
	// worker scratch; the Result is retained (Value reads Dist for the
	// rest of the solve) and stays on the heap.
	sn.res = b.FinalizeScratch(sc).Run(ts.Root)
	return sn
}

// PathStateBytes returns the byte footprint of the state needed only
// for path expansion (the Dijkstra parent chains and the [t,e]-node
// target map) — exactly what ReleasePathState frees. The Value lookups
// (Dist and the block layout) are not included: they stay live through
// the assembly stages.
func (sn *SmallNear) PathStateBytes() int64 {
	return 4*int64(len(sn.res.Parent)) + 4*int64(len(sn.teVertex))
}

// LookupStateBytes returns the byte footprint of the Value-lookup
// state (the Dijkstra distances and the block layout). During a solve
// it is transient either way; a *tracked* result pins it for the
// result's lifetime (snapshot expansion and the provenance explain
// both read it), so the provenance accounting charges it to the plane.
func (sn *SmallNear) LookupStateBytes() int64 {
	return 8*int64(len(sn.res.Dist)) + 4*int64(len(sn.teBase)+len(sn.startIdx))
}

// ReleasePathState drops the path-expansion state and returns the
// bytes freed. The MSRP pipeline calls it as soon as a source's §8.2.1
// seed shard has been enumerated — the only consumer of PathVertices —
// so the Θ(aux)-per-source parent chains live for P in-flight sources
// instead of all σ. Value (and NearStart) keep working; PathVertices
// calls afterwards are a programming error and panic. Under TrackPaths
// the compact witness subset survives in the ProvSnapshot taken just
// before the release (SnapshotProvenance adopts teVertex and copies
// the lattice parents), which is what ReconstructPath runs off.
func (sn *SmallNear) ReleasePathState() int64 {
	freed := sn.PathStateBytes()
	sn.res.Parent = nil
	sn.teVertex = nil
	sn.released = true
	return freed
}

// NearStart returns the first near path-edge index for target t (its
// near edges are indices NearStart(t) … Dist[t]−1), or Dist[t] when t
// has no near block.
func (sn *SmallNear) NearStart(t int32) int32 {
	if sn.teBase[t] < 0 {
		return sn.ps.Ts.Dist[t]
	}
	return sn.startIdx[t]
}

// Value returns the computed small-replacement-path length for target t
// and path-edge index i, or rp.Inf when i is not a near index or the
// node is unreachable.
func (sn *SmallNear) Value(t int32, i int) int32 {
	base := sn.teBase[t]
	if base < 0 || int32(i) < sn.startIdx[t] || int32(i) >= sn.ps.Ts.Dist[t] {
		return rp.Inf
	}
	d := sn.res.Dist[base+(int32(i)-sn.startIdx[t])]
	if d >= int64(rp.Inf) {
		return rp.Inf
	}
	return int32(d)
}

// PathVertices expands the winning small replacement path for (t, i)
// into its graph-vertex sequence (source first, t last), or nil when no
// small path was found. The §8.2.1 machinery enumerates these paths to
// locate centers on them.
func (sn *SmallNear) PathVertices(t int32, i int) []int32 {
	return sn.PathVerticesInto(nil, t, i)
}

// PathVerticesInto is PathVertices writing into dst's backing array
// when it has the capacity (allocating only when it does not). The
// §8.2.1 seed-table build expands Θ(σn) of these paths; routing them
// through one per-worker scratch buffer removes its dominant per-path
// allocation. The walk is the snapshot's, run over a stack view of the
// live arrays (the snapshot's teParent is a copy of res.Parent[n:]).
func (sn *SmallNear) PathVerticesInto(dst []int32, t int32, i int) []int32 {
	if sn.released {
		panic("ssrp: SmallNear path state was released; PathVertices must run before ReleasePathState")
	}
	live := ProvSnapshot{sn: sn, teParent: sn.res.Parent[sn.n:], teVertex: sn.teVertex}
	return live.PathVerticesInto(dst, t, i)
}
