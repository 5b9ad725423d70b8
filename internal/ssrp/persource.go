package ssrp

import (
	"math"
	"slices"

	"msrp/internal/bfs"
	"msrp/internal/classic"
	"msrp/internal/engine"
	"msrp/internal/lca"
	"msrp/internal/rp"
)

// PerSource carries the per-source state of the solver: the canonical
// tree T_s, the §7.1 small-near solution, and the replacement-path
// lengths from s to every landmark (filled by the classical algorithm
// in the single-source case, or by the §8 machinery in the multi-source
// case).
type PerSource struct {
	Sh   *Shared
	S    int32
	Ts   *bfs.Tree
	AncS *lca.Ancestry

	// Small answers the §7.1 queries; built by BuildSmallNear.
	Small *SmallNear

	// LenSR[r][i] = d(s, r, e_i) for the i-th edge of the canonical s→r
	// path. nil rows mean r is unreachable from s (or r == s).
	LenSR map[int32][]int32

	// TrackPaths enables provenance recording so ReconstructPath can
	// expand answers into concrete paths. The single-source pipeline
	// pairs it with classic crossing-edge witnesses; the multi-source
	// pipeline installs its §8 provenance plane via SetLandmarkPath.
	TrackPaths bool

	// Snap is the immutable §7.1 witness snapshot ReconstructPath
	// expands small answers from. It is taken before the heavyweight
	// path state is released (SnapshotProvenance), so reconstruction
	// keeps working under the MSRP pipeline's memory discipline.
	Snap *ProvSnapshot

	witness map[int32][]classic.Witness

	// landmarkPath, when set, expands the replacement path realizing
	// LenSR[r][i] — an s→r walk avoiding e_i of exactly that length.
	// The single-source solver leaves it nil (the classic witnesses in
	// `witness` serve that role); the MSRP solver installs its §8
	// provenance explain here.
	landmarkPath func(r int32, i int) ([]int32, error)

	prov [][]provEntry
}

// SetLandmarkPath installs the landmark-prefix expander ReconstructPath
// uses for answers won through a landmark (the multi-source provenance
// plane).
func (ps *PerSource) SetLandmarkPath(fn func(r int32, i int) ([]int32, error)) {
	ps.landmarkPath = fn
}

// ProvenanceBytes returns the per-source footprint of the retained
// provenance state — everything a tracked result keeps alive that an
// untracked result would have dropped: the §7.1 witness snapshot and
// the Value-lookup plane it reads, the per-answer provenance entries,
// the LenSR rows the explain machinery re-walks, and (single-source
// mode) the classic witnesses. Shared preprocessing (the landmark
// forest in Shared) is not charged: it outlives the result either way.
func (ps *PerSource) ProvenanceBytes() int64 {
	if !ps.TrackPaths {
		return 0
	}
	var b int64
	if ps.Snap != nil {
		b += ps.Snap.Bytes()
	}
	if ps.Small != nil {
		b += ps.Small.LookupStateBytes()
	}
	for _, row := range ps.prov {
		b += int64(len(row)) * 8 // kind + landmark id, padded
	}
	for _, ws := range ps.witness {
		b += int64(len(ws)) * 8 // two int32 endpoints
	}
	for _, row := range ps.LenSR {
		b += 4*int64(len(row)) + 16 // row + map-entry overhead
	}
	return b
}

// NewPerSource prepares per-source state. The source must be one of the
// sources given to NewShared (sources are forced landmarks, so their
// trees and ancestries are already built).
func (sh *Shared) NewPerSource(s int32) *PerSource {
	ts := sh.Tree[s]
	if ts == nil {
		panic("ssrp: source was not preprocessed; pass it to NewShared")
	}
	return &PerSource{
		Sh:   sh,
		S:    s,
		Ts:   ts,
		AncS: sh.Anc[s],
	}
}

// BuildSmallNear constructs and solves the §7.1 auxiliary graph.
func (ps *PerSource) BuildSmallNear() {
	ps.Small = buildSmallNear(ps, nil)
}

// BuildSmallNearScratch is BuildSmallNear reusing a per-worker scratch
// for the transient arc-builder arrays (the MSRP per-source fan-out).
func (ps *PerSource) BuildSmallNearScratch(sc *engine.Scratch) {
	ps.Small = buildSmallNear(ps, sc)
}

// ComputeLenSRClassic fills LenSR with the classical single-pair
// replacement path lengths from s to every landmark — the paper's
// single-source strategy (§3) — in one pass over T_s
// (classic.Rows) rather than one run per landmark. With TrackPaths set
// it also stores the crossing-edge witnesses.
func (ps *PerSource) ComputeLenSRClassic() {
	ps.LenSR, ps.witness = ps.FillRows(ps.Sh.List, ps.Sh.Tree)
}

// FillRows returns d(s, h, e_i) for every hub h ≠ s reachable from s
// and every edge e_i of the canonical s→h path, from one classic.Rows
// pass over T_s; trees holds the hubs' BFS trees. With TrackPaths set
// it also returns each cell's crossing-edge witness (else nil), which
// WitnessPath expands. Read the rows with RowDist.
func (ps *PerSource) FillRows(hubs []int32, trees map[int32]*bfs.Tree) (map[int32][]int32, map[int32][]classic.Witness) {
	lens := make(map[int32][]int32, len(hubs))
	var wits map[int32][]classic.Witness
	if ps.TrackPaths {
		wits = make(map[int32][]classic.Witness, len(hubs))
	}
	classic.Rows(ps.Sh.G, ps.Ts, hubs, trees, lens, wits)
	return lens, wits
}

// ComputeLenSRClassicPool is ComputeLenSRClassic. The pool no longer
// shards anything: the landmark rows come from one sequential pass.
// It stays for callers that time this step on a pool of their own.
func (ps *PerSource) ComputeLenSRClassicPool(*engine.Pool) {
	ps.ComputeLenSRClassic()
}

// SetLenSR installs externally computed landmark replacement lengths
// (the MSRP §8 pipeline). Rows follow the same convention as
// ComputeLenSRClassic.
func (ps *PerSource) SetLenSR(lenSR map[int32][]int32) {
	ps.LenSR = lenSR
}

// RowDist returns d(s, h, e) from rows, one source's replacement rows
// to a set of hubs (LenSR for the landmarks, or the multi-source
// solve's center rows), where e is the path edge with index i on any
// canonical path through it. Three cases:
//   - h == s: the empty path avoids everything — 0.
//   - e not on the canonical s→h path: the canonical path itself avoids
//     e — |sh|.
//   - otherwise the row value (index identity: e's index on the s→h
//     path is also i).
func (ps *PerSource) RowDist(rows map[int32][]int32, h int32, i int, e int32) int32 {
	if h == ps.S {
		return 0
	}
	if !ps.Ts.Reachable(h) {
		return inf
	}
	if !ps.AncS.EdgeOnRootPath(ps.Sh.G, e, h) {
		return ps.Ts.Dist[h]
	}
	row := rows[h]
	if row == nil || i >= len(row) {
		return inf
	}
	return row[i]
}

// Combine runs the per-target assembly (§6 far edges via Algorithm 3,
// §7.2 near-large via Algorithm 4, §7.1 small-near lookups, plus the
// free direct fill for landmark targets) and returns the full result.
func (ps *PerSource) Combine(stats *Stats) *rp.Result {
	sh := ps.Sh
	res := rp.NewResult(ps.Ts)
	var prov []provEntry
	if ps.TrackPaths {
		// One backing array, carved per target like res.Len.
		prov = make([]provEntry, res.NumQueries())
		ps.prov = make([][]provEntry, len(res.Len))
	}
	v := ps.NewCombineView()
	next := 0 // List position of the first landmark ≥ t
	for t := int32(0); t < int32(len(res.Len)); t++ {
		for next < len(sh.List) && sh.List[next] < t {
			next++
		}
		l := ps.Ts.Dist[t]
		if t == ps.S || l <= 0 {
			continue
		}
		row := res.Len[t]
		if stats != nil {
			stats.Queries += int64(l)
		}
		var provRow []provEntry
		if prov != nil {
			provRow, prov = prov[:l:l], prov[l:]
			ps.prov[t] = provRow
		}

		// Landmark targets come for free: LenSR already holds every
		// edge of their canonical path (exactly, in the σ=1 case).
		if next < len(sh.List) && sh.List[next] == t {
			for i, d := range v.lms[next].row {
				if d < row[i] {
					row[i] = d
					if provRow != nil {
						provRow[i] = provEntry{kind: provDirect, r: t}
					}
				}
			}
		}
		v.combine(t, row, provRow, stats)
	}
	return res
}

// CombineView is the dense, transient view the per-target candidate
// scan reads: one entry per landmark, in List order, holding what the
// scan needs of it, and a cell buffer for the target's canonical path.
// The scan therefore reads no map and resolves no edge endpoint. Build
// one per pass over the targets: Combine builds its own, and the
// multi-source pipeline's fixpoint sweeps build one per sweep call.
// Entries alias LenSR's rows, so a row lowered in place between
// CombineTarget calls is read at its new value by the later ones.
type CombineView struct {
	ps    *PerSource
	lms   []viewLandmark
	cells []scanCell
}

// viewLandmark is landmark r's entry: T_r (Dist, ParentEdge) and its
// stamps, LenSR[r], |sr| and r's stamps in T_s. A landmark unreachable
// from s is unreachable from every target, so the scan skips it on
// |rt| alone.
type viewLandmark struct {
	tree      *bfs.Tree
	anc       *lca.Ancestry
	row       []int32 // nil when r is s or unreachable from s
	sr        int32
	tin, tout int32
}

// scanCell is position i of the target's canonical path: e_i joins x_i
// (lo) to x_{i+1} (hi, its child in T_s), and hi's T_s stamps tell
// whether e_i lies on a landmark's canonical s→r path.
type scanCell struct {
	e, lo, hi int32
	tin, tout int32
}

// NewCombineView builds the candidate scan's view over the current
// LenSR rows.
func (ps *PerSource) NewCombineView() *CombineView {
	sh := ps.Sh
	v := &CombineView{ps: ps, lms: make([]viewLandmark, len(sh.List))}
	for j, r := range sh.List {
		tin, tout := ps.AncS.Stamps(r)
		v.lms[j] = viewLandmark{
			tree: sh.Tree[r], anc: sh.Anc[r], row: ps.LenSR[r],
			sr: ps.Ts.Dist[r], tin: tin, tout: tout,
		}
	}
	// BFS order ends at the deepest vertex, which bounds every path.
	ts := ps.Ts
	v.cells = make([]scanCell, ts.Dist[ts.Order[len(ts.Order)-1]])
	return v
}

// CombineTarget lowers row[i] (the current bound on d(s,t,e_i)) using
// the per-edge candidate machinery: §7.1 small values and Algorithm 4
// for near edges, Algorithm 3 for far edges. The row must have
// Ts.Dist[t] entries. Exposed separately because the MSRP pipeline
// applies it to landmark targets as a fixpoint sweep over LenSR.
func (v *CombineView) CombineTarget(t int32, row []int32, stats *Stats) {
	v.combine(t, row, nil, stats)
}

// combine walks t's canonical path once into the cell buffer, then
// scans it band by band. farBand never decreases with distance from t,
// so each band's edges form one run of positions.
func (v *CombineView) combine(t int32, row []int32, provRow []provEntry, stats *Stats) {
	ps := v.ps
	sh, ts := ps.Sh, ps.Ts
	l := int(ts.Dist[t])
	x := t
	for i := l - 1; i >= 0; i-- {
		p := ts.Parent[x]
		tin, tout := ps.AncS.Stamps(x)
		v.cells[i] = scanCell{e: ts.ParentEdge[x], lo: p, hi: x, tin: tin, tout: tout}
		x = p
	}
	// Position i lies at distance l−i from t; runs go outward from t.
	for end := l; end > 0; {
		k := sh.farBand(int32(l - end + 1))
		start := end - 1
		for start > 0 && sh.farBand(int32(l-start+1)) == k {
			start--
		}
		v.scanBand(t, k, start, end, row, provRow, stats)
		end = start
	}
}

// scanBand lowers row[i] for the run of positions [start, end) of band
// k: near (k < 0) positions take their §7.1 small value, then every
// band takes d(s,r,e_i) + |rt| over its level's landmarks r, landmark
// by landmark. A position still sees its small value first and the
// landmarks in level order under strict <, so rows, provenance and the
// scan counters equal an edge-by-edge scan's.
//
// A landmark is skipped outright when |sr| + |rt| is at least the
// run's largest current value. That bound is exact: every LenSR entry
// is the length of some s→r walk, hence ≥ |sr|, so every candidate r
// offers is ≥ |sr| + |rt| and none could win under strict <. The skip
// changes no row, provenance entry or counter.
func (v *CombineView) scanBand(t int32, k, start, end int, row []int32, provRow []provEntry, stats *Stats) {
	ps := v.ps
	sh := ps.Sh
	thr := math.Inf(1)
	if k < 0 {
		for i := start; i < end; i++ {
			if w := ps.Small.Value(t, i); w < row[i] {
				row[i] = w
				if provRow != nil {
					provRow[i] = provEntry{kind: provSmall}
				}
			}
		}
	} else {
		thr = sh.farThreshold(k)
	}
	level := sh.levelPos[sh.bandLevel(k)]
	if stats != nil {
		scans := int64(end-start) * int64(len(level))
		if k < 0 {
			stats.NearLargeScans += scans
		} else {
			stats.FarScans += scans
		}
	}
	cells := v.cells[start:end]
	top := slices.Max(row[start:end])
	for _, j := range level {
		lm := &v.lms[j]
		dt := lm.tree.Dist[t]
		if dt < 0 || float64(dt) > thr || lm.sr+dt >= top {
			continue
		}
		lowered := false
		pe, anc, lrow := lm.tree.ParentEdge, lm.anc, lm.row
		ttin, ttout := anc.Stamps(t)
		for ci := range cells {
			c := &cells[ci]
			// Skip e_i when it lies on the canonical r→t path: its child
			// endpoint in T_r is then an ancestor of t. For near edges
			// Lemma 13 says a useful r avoids it; for far ones the band's
			// distance argument already does, and the check keeps the
			// candidate sound independently of the float arithmetic.
			ch := c.hi
			if pe[ch] != c.e {
				ch = c.lo
			}
			if pe[ch] == c.e {
				if tin, tout := anc.Stamps(ch); tin <= ttin && ttout <= tout {
					continue
				}
			}
			// d(s,r,e_i): |sr| when e_i is off the canonical s→r path
			// (0 for r = s), else LenSR[r][i].
			i := start + ci
			d := lm.sr
			if c.tin <= lm.tin && lm.tout <= c.tout {
				if i >= len(lrow) || lrow[i] >= inf {
					continue
				}
				d = lrow[i]
			}
			if cand := d + dt; cand < row[i] {
				row[i] = cand
				lowered = true
				if provRow != nil {
					provRow[i] = provEntry{kind: provVia, r: sh.List[j]}
				}
			}
		}
		if lowered {
			top = slices.Max(row[start:end])
		}
	}
}
