package ssrp

import "msrp/internal/rp"

// The provenance snapshot: the compact, immutable witness state that
// lets a small replacement path (§7.1) be expanded long after the
// heavyweight solver state is gone.
//
// The §7.1 Dijkstra's full path-expansion state is Θ(aux) per source:
// a parent pointer for every auxiliary node — the n vertex-layer nodes
// *and* the [t,e] lattice — plus the [t,e]→target map. The MSRP
// pipeline releases it per source right after the §8.2.1 seed shard is
// enumerated (SmallNear.ReleasePathState), which is what keeps the
// pipelined solve's pre-merge peak at Θ(P·aux). Path tracking therefore
// cannot lean on that state: it snapshots the part that actually
// witnesses paths — the [t,e] lattice only — into a ProvSnapshot before
// the release.
//
// Two observations make the snapshot both sufficient and compact:
//
//   - A vertex-layer node's parent is always the root (the only arcs
//     into [v] are [s] → [v]), so the n vertex-layer parents carry no
//     information: the canonical tree T_s already expands that prefix.
//   - A [t,e] node's parent chain (its witness structure: which
//     neighbour-hop lattice arcs won, and which detour anchor [v] the
//     chain enters the vertex layer at) is exactly res.Parent[n:], and
//     each chain node appends exactly one graph vertex, teVertex.
//
// So the snapshot is two int32 arrays over the [t,e] lattice — 8 bytes
// per lattice node, byte-accounted by Bytes() — and nothing else.
type ProvSnapshot struct {
	sn *SmallNear // retained lookup state: teBase/startIdx/Dist stay live

	// teParent[node−n] is the Dijkstra parent of [t,e] node `node`:
	// another lattice node (≥ n) or the detour-anchor vertex node (< n).
	teParent []int32
	// teVertex[node−n] is the graph vertex the lattice node appends —
	// adopted (not copied) from the SmallNear just before release.
	teVertex []int32
}

// SnapshotProvenance extracts the compact path-witness state of the
// §7.1 solution. It must be called before ReleasePathState (the MSRP
// pipeline snapshots between a source's seed-shard enumeration and the
// release; the single-source solver right after the build). The
// returned snapshot is immutable and safe for concurrent readers.
func (sn *SmallNear) SnapshotProvenance() *ProvSnapshot {
	if sn.released {
		panic("ssrp: SnapshotProvenance must run before ReleasePathState")
	}
	snap := &ProvSnapshot{
		sn:       sn,
		teParent: append([]int32(nil), sn.res.Parent[sn.n:]...),
		teVertex: sn.teVertex,
	}
	return snap
}

// Bytes returns the snapshot's retained footprint (the provenance-plane
// accounting unit rolled up into OracleStats.ProvenanceBytes).
func (snap *ProvSnapshot) Bytes() int64 {
	return 4*int64(len(snap.teParent)) + 4*int64(len(snap.teVertex))
}

// PathVertices expands the winning small replacement path for (t, i)
// into its graph-vertex sequence (source first, t last), or nil when no
// small path was found. Semantically identical to
// SmallNear.PathVertices, but reads only the snapshot — it keeps
// working after ReleasePathState.
func (snap *ProvSnapshot) PathVertices(t int32, i int) []int32 {
	return snap.PathVerticesInto(nil, t, i)
}

// PathVerticesInto is PathVertices writing into dst's backing array
// when it has the capacity. It is the one §7.1 small-path walk:
// SmallNear.PathVerticesInto runs it over a view of the live arrays.
func (snap *ProvSnapshot) PathVerticesInto(dst []int32, t int32, i int) []int32 {
	sn := snap.sn
	n := int32(sn.n)
	base := sn.teBase[t]
	if base < 0 || int32(i) < sn.startIdx[t] || int32(i) >= sn.ps.Ts.Dist[t] {
		return nil
	}
	node := base + (int32(i) - sn.startIdx[t])
	if sn.res.Dist[node] >= int64(rp.Inf) {
		return nil
	}
	// The witness chain is a run of [t',e] lattice nodes ending at the
	// detour-anchor vertex node whose canonical prefix completes the
	// walk. First pass: count the tail and find the anchor; second
	// pass: fill in place.
	tailLen := 0
	v := node
	for v >= n {
		tailLen++
		v = snap.teParent[v-n]
	}
	prefixLen := int(sn.ps.Ts.Dist[v]) + 1
	total := prefixLen + tailLen
	if cap(dst) < total {
		dst = make([]int32, total)
	} else {
		dst = dst[:total]
	}
	for j, x := prefixLen-1, v; j >= 0; j-- {
		dst[j] = x
		x = sn.ps.Ts.Parent[x]
	}
	for j, x := total-1, node; x >= n; j-- {
		dst[j] = snap.teVertex[x-n]
		x = snap.teParent[x-n]
	}
	return dst
}
