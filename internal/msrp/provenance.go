package msrp

import (
	"fmt"

	"msrp/internal/rp"
	"msrp/internal/ssrp"
)

// The multi-source provenance plane.
//
// The single-source pipeline can afford to remember *how* every
// d(s,r,e) was won: it computes those values with the classic algorithm
// and the crossing-edge witness is a two-int32 byproduct. The §8
// pipeline cannot — its landmark values emerge from the §8.1 center
// rows, a stack of build-run-discard Dijkstras (the §8.2.2 G_c), a
// shared seed table whose entries are minima over *other sources'*
// small paths, and a fixpoint sweep. Recording a full decision trail
// through that stack would couple tracking into every hot loop.
//
// Instead the plane retains three compact, immutable artifacts when
// Params.TrackPaths is set —
//
//  1. per source, the §7.1 witness snapshot (ssrp.ProvSnapshot) taken
//     between seed-shard enumeration and ReleasePathState, and the §8.1
//     center rows with their crossing-edge witnesses (centerRows);
//  2. per center, the §8.2.2 G_c parent chains (the hub graph's
//     auxProv);
//  3. the merged §8.2.1 seed cells themselves —
//
// and *explains* a value on demand: given the final LenSR[r][i], it
// re-walks the assembly's candidate space (the §7.1 small value,
// one-hop landmark detours, the two MTC terms) against the final,
// immutable stage outputs until a candidate achieves the value exactly,
// then expands that candidate into a concrete walk. Every stage output
// except the mutually-recursive landmark values is written once, so at
// sweep convergence a realizing candidate is guaranteed to exist; the
// landmark recursion terminates because each hop strictly decreases the
// explained value. The expansion is validated (length == value) before
// it is returned, so a reconstructed path is a certificate, never a
// guess.
type Provenance struct {
	sh     *ssrp.Shared
	ctr    *Centers
	perSrc []*ssrp.PerSource
	rows   []*centerRows
	cl     *centerLandmark
	// seed holds the merged §8.2.1 cells; the explain pass re-reads the
	// [c]→[r,e] arc weights of G_c from it.
	seed *seedRows
}

// newProvenance bundles the retained artifacts after the pipeline
// stages have run. It installs itself as every source's landmark-path
// expander.
func newProvenance(sh *ssrp.Shared, ctr *Centers, perSrc []*ssrp.PerSource,
	rows []*centerRows, cl *centerLandmark, seed *seedRows) *Provenance {
	pv := &Provenance{sh: sh, ctr: ctr, perSrc: perSrc, rows: rows, cl: cl, seed: seed}
	for i := range perSrc {
		si := i
		perSrc[i].SetLandmarkPath(func(r int32, j int) ([]int32, error) {
			return pv.landmarkPath(si, r, j)
		})
	}
	return pv
}

// Bytes returns the plane's retained footprint beyond the per-source
// state (which ssrp.PerSource.ProvenanceBytes accounts): the §8.1
// center rows and witnesses, the §8.2.2 parent chains, the seed table,
// and the center forest — the trees and ancestries an untracked solve
// would have dropped with the rest of the §8 machinery but the explain
// pass keeps re-walking.
func (pv *Provenance) Bytes() int64 {
	var b int64
	for _, cr := range pv.rows {
		b += cr.bytes()
	}
	for _, gc := range pv.cl.graphs {
		b += gc.prov.bytes()
	}
	b += pv.seed.Bytes()
	for _, c := range pv.ctr.List {
		b += pv.ctr.Tree[c].Bytes() + pv.ctr.Anc[c].Bytes()
	}
	return b
}

// landmarkPath expands a d(s,r,e_i)-realizing walk for the final
// LenSR[r][i] of source index si (s first, r last), validating its
// length against the value it explains.
func (pv *Provenance) landmarkPath(si int, r int32, i int) ([]int32, error) {
	ps := pv.perSrc[si]
	row := ps.LenSR[r]
	if row == nil || i < 0 || i >= len(row) {
		return nil, fmt.Errorf("msrp: no landmark value for r=%d i=%d", r, i)
	}
	v := row[i]
	if v >= rp.Inf {
		return nil, fmt.Errorf("msrp: landmark path requested for an unreachable value (r=%d i=%d)", r, i)
	}
	e := ps.EdgeAt(r, i)
	p, _, err := pv.expandLenSR(si, r, int32(i), e, v, 0)
	if err != nil {
		return nil, err
	}
	if int32(len(p))-1 != v {
		return nil, fmt.Errorf("msrp: provenance expansion length %d != value %d (r=%d i=%d)", len(p)-1, v, r, i)
	}
	return p, nil
}

// expandLenSR finds and expands a candidate achieving exactly v =
// LenSR[r][i] for edge e (shared-prefix index i). The scan mirrors the
// assembly's candidate space; every accepted candidate is re-validated
// for e-avoidance, so the result is sound even where the assembly's
// sharper interval arguments were in play.
//
// Alongside the walk it reports *which* candidate won, in the compact
// plane's vocabulary (compact.go): the §7.1 small value, a landmark
// detour with a canonical or recursively-expanded prefix, or one of the
// two MTC terms — the compaction pass keeps the winner, not the search.
func (pv *Provenance) expandLenSR(si int, r, i, e int32, v int32, depth int) ([]int32, winner, error) {
	ps := pv.perSrc[si]
	g := pv.sh.G
	if depth > g.NumVertices()+1 {
		return nil, winner{}, fmt.Errorf("msrp: provenance recursion exceeded %d hops (r=%d i=%d)", depth, r, i)
	}

	// 1. The §7.1 small value, expanded from the witness snapshot.
	if ps.Small.Value(r, int(i)) == v {
		if p := ps.Snap.PathVertices(r, int(i)); p != nil {
			return p, winner{kind: cSmall}, nil
		}
	}

	// 2. Through another landmark r2: d(s,r2,e) + |r2 r|, the form the
	// interval-avoidance candidates and the fixpoint sweeps share. The
	// prefix is the canonical s→r2 path when e is off it, else the
	// r2-value's own expansion (strictly smaller value ⇒ termination).
	for _, r2 := range pv.sh.List {
		if r2 == r {
			continue
		}
		dr2r := pv.sh.Tree[r2].Dist[r]
		if dr2r <= 0 {
			continue
		}
		if pv.sh.Anc[r2].EdgeOnRootPath(g, e, r) {
			continue // suffix would cross e
		}
		d2 := ps.RowDist(ps.LenSR, r2, int(i), e)
		if d2 >= rp.Inf || d2+dr2r != v {
			continue
		}
		var prefix []int32
		kind := cViaCanon
		if !ps.AncS.EdgeOnRootPath(g, e, r2) {
			prefix = ps.Ts.PathTo(r2)
		} else {
			var err error
			if prefix, _, err = pv.expandLenSR(si, r2, i, e, d2, depth+1); err != nil {
				continue
			}
			kind = cViaChain
		}
		return appendLeg(prefix, pv.sh.Tree[r2].PathTo(r)), winner{kind: kind, r2: r2}, nil
	}

	// 3. MTC term 1: |s c| + d(c,r,e) through a center whose canonical
	// prefix avoids e; the suffix expands through the §8.2.2 plane.
	for _, c := range pv.ctr.List {
		if c == r || !ps.Ts.Reachable(c) {
			continue
		}
		if ps.AncS.EdgeOnRootPath(g, e, c) {
			continue
		}
		d1 := pv.cl.at(c).dist(r, e)
		if d1 >= rp.Inf || ps.Ts.Dist[c]+d1 != v {
			continue
		}
		suffix, err := pv.expandCR(c, r, e)
		if err != nil {
			continue
		}
		return appendLeg(ps.Ts.PathTo(c), suffix), winner{kind: cPath}, nil
	}

	// 4. MTC term 2: d(s,c,e) + |c r| through a center whose canonical
	// suffix (in T_c) avoids e; the prefix is the canonical s→c path
	// when e is off it, else the center row's witness walk.
	rows := pv.rows[si]
	for _, c := range pv.ctr.List {
		dcr := pv.ctr.Tree[c].Dist[r]
		if dcr < 0 {
			continue
		}
		if pv.ctr.Anc[c].EdgeOnRootPath(g, e, r) {
			continue
		}
		d2 := ps.RowDist(rows.lens, c, int(i), e)
		if d2 >= rp.Inf || d2+dcr != v {
			continue
		}
		var prefix []int32
		if !ps.AncS.EdgeOnRootPath(g, e, c) {
			prefix = ps.Ts.PathTo(c)
		} else {
			var err error
			if prefix, err = ps.WitnessPath(rows.wits, pv.ctr.Tree[c], c, int(i)); err != nil {
				continue
			}
		}
		return appendLeg(prefix, pv.ctr.Tree[c].PathTo(r)), winner{kind: cPath}, nil
	}

	return nil, winner{}, fmt.Errorf("msrp: no provenance candidate realizes LenSR value %d (r=%d i=%d; non-converged sweep?)", v, r, i)
}

// expandCR expands a d(c,r,e)-realizing walk (c … r) through the
// §8.2.2 G_c parent chains; a [c]→[r,e] arc is a §8.2.1 seed cell, the
// c … r suffix of some source's small path through c.
func (pv *Provenance) expandCR(c, r, e int32) ([]int32, error) {
	ci := pv.ctr.Index(c)
	return pv.cl.at(c).path(r, e, func(r, i, e int32) ([]int32, error) {
		w, ok := pv.seed.Get(ci, pv.cl.lmIdx[r], i)
		if !ok {
			return nil, fmt.Errorf("msrp: G_c seed arc (%d,%d,%d) has no seed cell", c, r, e)
		}
		return pv.seedSuffix(c, r, e, w)
	})
}

// seedSuffix locates a source whose §7.1 small path to landmark r
// realizes the seed cell (c, r, e) → w — the path passes c exactly w
// hops before r — and returns that c … r suffix. The cell stores only
// the minimum; the realizing source is recovered by scanning the
// retained snapshots with the same enumeration rules buildSeedShard
// used, so a finite cell always has a witness among them.
func (pv *Provenance) seedSuffix(c, r, e int32, w int32) ([]int32, error) {
	g := pv.sh.G
	for _, ps2 := range pv.perSrc {
		ts2 := ps2.Ts
		if r == ps2.S || !ts2.Reachable(r) {
			continue
		}
		if !ps2.AncS.EdgeOnRootPath(g, e, r) {
			continue // e not on this source's canonical path to r
		}
		child, ok := ts2.ChildEndpoint(g, e)
		if !ok {
			continue
		}
		i2 := ts2.Dist[child] - 1
		if i2 < ps2.Small.NearStart(r) || ps2.Small.Value(r, int(i2)) >= rp.Inf {
			continue
		}
		path := ps2.Snap.PathVertices(r, int(i2))
		pos := len(path) - 1 - int(w)
		if pos >= 0 && pos < len(path)-1 && path[pos] == c {
			return path[pos:], nil
		}
	}
	return nil, fmt.Errorf("msrp: no source path realizes seed cell (%d,%d,%d)=%d", c, r, e, w)
}

// appendLeg joins a walk ending at v with a canonical leg starting at
// v, dropping the duplicated junction vertex.
func appendLeg(prefix, leg []int32) []int32 {
	return append(prefix, leg[1:]...)
}
