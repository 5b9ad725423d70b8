package msrp

import (
	"sort"

	"msrp/internal/engine"
	"msrp/internal/rp"
	"msrp/internal/ssrp"
)

// This file implements the paper's §8.3 faithfully: bottleneck edges
// (Definition 23) and the §8.3.2 auxiliary graph that computes
// sr ⋄ B[s,r,i] for every interval of every source→landmark path. It is
// selected with Params.PaperBottleneck and compared against the default
// assembly (interval avoidance + fixpoint sweeps) by experiment E10.
//
// The paper's final per-edge rule is Lemma 24:
//
//	d(s,r,e) = min( MTC(s,r,e), sr ⋄ B[s,r,i] )      for e in interval i,
//
// where B[s,r,i] maximizes MTC over the interval (§8.3.1) and the
// second term is resolved by one Dijkstra per source over nodes
// [s], [r'], [s,r,i] — the mutual recursion between landmark values
// rides on the chain arcs [s,r',j] → [s,r,i].
//
// Known caveat (pinned by TestPaperBottleneckCornerIsReal): on
// *terminal* intervals (the paper's construction has no right-boundary
// center there) the argmax-by-MTC edge need not maximize the true
// sr⋄·, and applying its value to the other interval edges can in
// principle undershoot. The default mode
// avoids the corner; this mode reproduces the paper, and E10 measures
// whether the corner bites in practice.

// bottleneckState carries the §8.3 data for one source.
type bottleneckState struct {
	// mtcRow[r][i] = MTC(s, r, e_i) for the i-th edge of the sr path
	// (rp.Inf where both terms are unavailable).
	mtcRow map[int32][]int32
	// boundaries[r] = interval boundary positions on the sr path.
	boundaries map[int32][]int32
	// bottleneckIdx[r][q] = path index of B[s,r,q] for interval q.
	bottleneckIdx map[int32][]int32
	// value[r][q] = computed sr ⋄ B[s,r,q].
	value map[int32][]int32

	// Aux graph size counters (E9/E10 observability).
	NumNodes int
	NumArcs  int
}

// computeMTCRow fills MTC(s,r,·) for every edge of the sr path using
// the §8.1 (dSC) and §8.2 (dCR) answers, given the interval boundary
// decomposition. Shared by both assembly modes.
func computeMTCRow(ps *ssrp.PerSource, ctr *Centers, sc *sourceCenter, cl *centerLandmark,
	r int32, path []int32, edges []int32, boundaries []int32) []int32 {
	sh := ps.Sh
	ts := ps.Ts
	l := len(edges)
	row := make([]int32, l)
	for i := range row {
		row[i] = rp.Inf
	}
	for q := 0; q+1 < len(boundaries); q++ {
		lo, hi := boundaries[q], boundaries[q+1]
		c1 := path[lo]
		c2 := path[hi]
		lastInterval := int(hi) == l
		for i := lo; i < hi; i++ {
			e := edges[i]
			best := rp.Inf
			if d1 := cl.dCR(sh, c1, r, e); d1 < rp.Inf {
				if cand := ts.Dist[c1] + d1; cand < best {
					best = cand
				}
			}
			if !lastInterval {
				if d2 := sc.dSC(c2, int(i), e); d2 < rp.Inf {
					if dcr := ctr.Tree[c2].Dist[r]; dcr >= 0 {
						if cand := d2 + dcr; cand < best {
							best = cand
						}
					}
				}
			}
			row[i] = best
		}
	}
	return row
}

// buildBottleneck runs §8.3 for one source: picks bottleneck edges per
// interval (§8.3.1) and solves the §8.3.2 auxiliary graph.
func buildBottleneck(ps *ssrp.PerSource, ctr *Centers, sc *sourceCenter, cl *centerLandmark, scr *engine.Scratch) *bottleneckState {
	sh := ps.Sh
	ts := ps.Ts
	g := sh.G
	bs := &bottleneckState{
		mtcRow:        make(map[int32][]int32, len(sh.List)),
		boundaries:    make(map[int32][]int32, len(sh.List)),
		bottleneckIdx: make(map[int32][]int32, len(sh.List)),
		value:         make(map[int32][]int32, len(sh.List)),
	}

	// Pass 1: MTC rows, interval boundaries, argmax-MTC bottlenecks.
	type lmNode struct {
		r     int32
		node  int32 // [r] node id
		base  int32 // first [s,r,i] node id
		edges []int32
	}
	var lms []lmNode
	next := int32(1)
	for _, r := range sh.List {
		if r == ps.S || !ts.Reachable(r) {
			continue
		}
		lms = append(lms, lmNode{r: r, node: next})
		next++
	}
	pathBuf := scr.Int32(g.NumVertices() + 1)
	for li := range lms {
		lm := &lms[li]
		r := lm.r
		path := ts.PathInto(pathBuf, r) // transient; lm.edges below is retained
		edges := ts.PathEdgesTo(r)
		lm.edges = edges
		boundaries := ctr.intervalsOn(path)
		mtc := computeMTCRow(ps, ctr, sc, cl, r, path, edges, boundaries)
		numIv := len(boundaries) - 1
		bidx := make([]int32, numIv)
		for q := 0; q < numIv; q++ {
			lo, hi := boundaries[q], boundaries[q+1]
			best := lo
			for i := lo + 1; i < hi; i++ {
				// argmax of MTC; Inf counts as the hardest to avoid,
				// matching Definition 23 (a bridge-like edge maximizes
				// sr⋄e trivially).
				if mtc[i] > mtc[best] {
					best = i
				}
			}
			bidx[q] = best
		}
		bs.mtcRow[r] = mtc
		bs.boundaries[r] = boundaries
		bs.bottleneckIdx[r] = bidx
		lm.base = next
		next += int32(numIv)
	}
	total := int(next)

	// Pass 2: arcs.
	bld := ssrp.AttachedBuilder(scr, total, total*4)
	for li := range lms {
		bld.AddArc(0, lms[li].node, ts.Dist[lms[li].r]) // [s]→[r']
	}
	// intervalOfIdx finds the interval q of path index i for landmark
	// r' (boundary positions are sorted).
	intervalOfIdx := func(r int32, i int32) int {
		b := bs.boundaries[r]
		q := sort.Search(len(b), func(k int) bool { return b[k] > i }) - 1
		if q < 0 {
			q = 0
		}
		if q >= len(b)-1 {
			q = len(b) - 2
		}
		return q
	}
	for li := range lms {
		lm := &lms[li]
		r := lm.r
		bidx := bs.bottleneckIdx[r]
		for q := range bidx {
			node := lm.base + int32(q)
			i := bidx[q]
			e := lm.edges[i]
			// [s] arcs: the direct MTC value and the §7.1 small value.
			if v := bs.mtcRow[r][i]; v < rp.Inf {
				bld.AddArc(0, node, v)
			}
			if v := ps.Small.Value(r, int(i)); v < rp.Inf {
				bld.AddArc(0, node, v)
			}
			// Landmark hops.
			for lj := range lms {
				lm2 := &lms[lj]
				r2 := lm2.r
				if r2 == r {
					continue
				}
				dRR := sh.Tree[r2].Dist[r]
				if dRR < 0 {
					continue
				}
				if sh.Anc[r2].EdgeOnRootPath(g, e, r) {
					continue // B on the canonical r'→r path
				}
				if !ps.AncS.EdgeOnRootPath(g, e, r2) {
					// B off the s→r' path: [r'] → [s,r,i].
					bld.AddArc(lm2.node, node, dRR)
					continue
				}
				// B on the s→r' path: resolve through r''s own data.
				// Its index there equals i (shared-prefix identity).
				if i < int32(len(bs.mtcRow[r2])) {
					if v := bs.mtcRow[r2][i]; v < rp.Inf {
						// [s] → [s,r,i] with MTC(s,r',B) + |r'r|.
						bld.AddArc(0, node, v+dRR)
					}
					if v := ps.Small.Value(r2, int(i)); v < rp.Inf {
						bld.AddArc(0, node, v+dRR)
					}
					// Chain arc [s,r',j] → [s,r,i].
					j := intervalOfIdx(r2, i)
					bld.AddArc(lm2.base+int32(j), node, dRR)
				}
			}
		}
	}
	bs.NumNodes = total
	bs.NumArcs = bld.NumArcs()
	// Build-run-discard: the CSR and result live in the worker scratch.
	res := bld.FinalizeScratch(scr).RunScratch(0, scr)

	// Pass 3: extract bottleneck values.
	for li := range lms {
		lm := &lms[li]
		bidx := bs.bottleneckIdx[lm.r]
		vals := make([]int32, len(bidx))
		for q := range bidx {
			d := res.Dist[lm.base+int32(q)]
			if d >= int64(rp.Inf) {
				vals[q] = rp.Inf
			} else {
				vals[q] = int32(d)
			}
		}
		bs.value[lm.r] = vals
	}
	return bs
}

// assembleLenSRBottleneck is the paper-faithful §8.3 assembly:
// d(s,r,e) = min(MTC(s,r,e), sr⋄B[interval], §7.1 small value).
func assembleLenSRBottleneck(ps *ssrp.PerSource, ctr *Centers, sc *sourceCenter, cl *centerLandmark, scr *engine.Scratch) (map[int32][]int32, *bottleneckState) {
	bs := buildBottleneck(ps, ctr, sc, cl, scr)
	sh := ps.Sh
	ts := ps.Ts
	lenSR := make(map[int32][]int32, len(sh.List))
	for _, r := range sh.List {
		if r == ps.S || !ts.Reachable(r) {
			continue
		}
		mtc := bs.mtcRow[r]
		boundaries := bs.boundaries[r]
		vals := bs.value[r]
		row := make([]int32, len(mtc))
		for q := 0; q+1 < len(boundaries); q++ {
			for i := boundaries[q]; i < boundaries[q+1]; i++ {
				best := mtc[i]
				if v := vals[q]; v < best {
					best = v
				}
				if v := ps.Small.Value(r, int(i)); v < best {
					best = v
				}
				row[i] = best
			}
		}
		lenSR[r] = row
	}
	return lenSR, bs
}
