package msrp

import (
	"sort"

	"msrp/internal/engine"
	"msrp/internal/rp"
	"msrp/internal/ssrp"
)

// assembleLenSR computes d(s, r, e) for one source s and every landmark
// r, combining (per edge e on the canonical s→r path, Lemma 16/24):
//
//	term1: |s c1| + d(c1, r, e)   — through the interval's left center
//	term2: d(s, c2, e) + |c2 r|   — through the interval's right center
//	small: the §7.1 value          — when e is near r
//	avoid: one-hop interval avoidance — |s r'| + |r' r| over landmarks
//	       r' whose two canonical legs both miss e's entire interval
//
// term1/term2 realize the paper's MTC (minimum through centers); term2
// is skipped on the terminal interval (c2 = r would be circular). The
// `avoid` term replaces the paper's bottleneck-edge machinery with a
// candidate that is *unconditionally* sound: a path avoiding the whole
// interval avoids every edge in it, so one value serves the interval.
// §8.3's literal bottleneck edges undershoot at paper constants
// (EXPERIMENTS.md, E10 final row set). Completeness gaps left by the
// one-hop restriction are closed by the fixpoint sweeps in
// sweepLandmarks, which re-run the far/near candidate machinery over
// landmark targets until the mutual recursion between landmark values
// stabilizes.
func assembleLenSR(ps *ssrp.PerSource, ctr *Centers, cr *centerRows, cl *centerLandmark, scr *engine.Scratch) map[int32][]int32 {
	sh := ps.Sh
	ts := ps.Ts
	lenSR := make(map[int32][]int32, len(sh.List))

	// Per-landmark path expansions are transient (intervalsOn and the
	// MTC row only read them), so one scratch buffer pair serves the
	// whole sweep.
	n := sh.G.NumVertices()
	pathBuf := scr.Int32(n + 1)
	edgeBuf := scr.Int32(n)
	for _, r := range sh.List {
		if r == ps.S || !ts.Reachable(r) {
			continue
		}
		path := ts.PathInto(pathBuf, r)
		edges := ts.PathEdgesInto(edgeBuf, r)
		boundaries := ctr.intervalsOn(path)
		row := computeMTCRow(ps, ctr, cr, cl, r, path, edges, boundaries)

		// Per-interval one-hop avoidance plus the §7.1 small values.
		for q := 0; q+1 < len(boundaries); q++ {
			lo, hi := boundaries[q], boundaries[q+1]
			avoid := intervalAvoidance(ps, r, path, edges, lo, hi)
			for i := lo; i < hi; i++ {
				if avoid < row[i] {
					row[i] = avoid
				}
				if w := ps.Small.Value(r, int(i)); w < row[i] {
					row[i] = w
				}
			}
		}
		lenSR[r] = row
	}
	return lenSR
}

// computeMTCRow fills MTC(s,r,·) for every edge of the sr path: per
// interval of the decomposition, term1 through its left center c1
// (|sc1| + d(c1,r,e) from §8.2.2's G_c) and term2 through its right
// center c2 (d(s,c2,e) from §8.1's center rows, plus |c2r|). e_i lies
// on the s→c2 prefix of the path, so d(s,c2,e_i) is c2's row at i.
func computeMTCRow(ps *ssrp.PerSource, ctr *Centers, cr *centerRows, cl *centerLandmark,
	r int32, path []int32, edges []int32, boundaries []int32) []int32 {
	ts := ps.Ts
	l := len(edges)
	row := make([]int32, l)
	for i := range row {
		row[i] = rp.Inf
	}
	for q := 0; q+1 < len(boundaries); q++ {
		lo, hi := boundaries[q], boundaries[q+1]
		c1 := path[lo]
		gc1 := cl.at(c1)
		// No term2 on the terminal interval (c2 = r would be circular).
		var row2 []int32
		var dcr int32
		if int(hi) < l {
			c2 := path[hi]
			row2, dcr = cr.lens[c2], ctr.Tree[c2].Dist[r]
		}
		for i := lo; i < hi; i++ {
			best := rp.Inf
			if d1 := gc1.dist(r, edges[i]); d1 < rp.Inf {
				best = min(best, ts.Dist[c1]+d1)
			}
			if row2 != nil && row2[i] < rp.Inf {
				best = min(best, row2[i]+dcr)
			}
			row[i] = best
		}
	}
	return row
}

// intervalAvoidance returns the best one-hop candidate |sr'| + |r'r|
// over landmarks r' such that neither canonical leg touches any edge of
// the interval [lo, hi) of the path to r. The s-side check is O(1): the
// canonical s→r' path contains an interval edge iff it contains the
// first one, i.e. iff path[lo+1] is an ancestor of r' in T_s (a root
// path that uses a tree edge uses its whole root-side prefix). The
// r'-side check walks the interval's edges (O(interval length)).
func intervalAvoidance(ps *ssrp.PerSource, r int32, path, edges []int32, lo, hi int32) int32 {
	sh := ps.Sh
	g := sh.G
	firstChild := path[lo+1]
	best := rp.Inf
	for _, r2 := range sh.List {
		if r2 == r {
			continue
		}
		dsr2 := ps.Ts.Dist[r2]
		if dsr2 < 0 {
			continue
		}
		dr2r := sh.Tree[r2].Dist[r]
		if dr2r < 0 {
			continue
		}
		cand := dsr2 + dr2r
		if cand >= best {
			continue // cheap cutoff before the O(len) check
		}
		if ps.AncS.IsAncestor(firstChild, r2) {
			continue // s→r' enters the interval
		}
		anc2 := sh.Anc[r2]
		clean := true
		for i := lo; i < hi; i++ {
			if anc2.EdgeOnRootPath(g, edges[i], r) {
				clean = false
				break
			}
		}
		if clean {
			best = cand
		}
	}
	return best
}

// sweepLandmarks runs the far/near candidate machinery (Algorithms 3
// and 4 plus the §7.1 lookups) over every landmark target, reading and
// writing LenSR, until no value improves or maxSweeps is reached.
// Landmarks are processed in increasing |sr| order so that one sweep
// resolves most dependency chains (a Lemma 13 hop goes through a
// strictly shorter replacement path). Every candidate is sound, so the
// iteration decreases monotonically and can only move toward the truth.
func sweepLandmarks(ps *ssrp.PerSource, maxSweeps int) (sweeps int, improved int64) {
	sh := ps.Sh
	order := make([]int32, 0, len(sh.List))
	for _, r := range sh.List {
		if r != ps.S && ps.Ts.Reachable(r) {
			order = append(order, r)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		da, db := ps.Ts.Dist[order[a]], ps.Ts.Dist[order[b]]
		if da != db {
			return da < db
		}
		return order[a] < order[b]
	})
	// The view aliases LenSR's rows, so each sweep reads the values the
	// previous targets lowered in place.
	view := ps.NewCombineView()
	scratch := make([]int32, 0, 64)
	for sweeps = 0; sweeps < maxSweeps; sweeps++ {
		changed := int64(0)
		for _, r := range order {
			row := ps.LenSR[r]
			scratch = append(scratch[:0], row...)
			view.CombineTarget(r, scratch, nil)
			for i := range row {
				if scratch[i] < row[i] {
					row[i] = scratch[i]
					changed++
				}
			}
		}
		improved += changed
		if changed == 0 {
			break
		}
	}
	return sweeps, improved
}
