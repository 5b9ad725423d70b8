package ssrp

import (
	"fmt"

	"msrp/internal/bfs"
	"msrp/internal/classic"
)

// Path reconstruction: when Params.TrackPaths is set, the solvers
// record, for every (target, path-edge) answer, *which* candidate won —
// enough to expand the actual replacement path on demand. The paper
// computes lengths only; reconstruction is this implementation's
// extension, and it powers the fault-tolerant preserver
// (internal/preserver), the serving layer's path queries, and a second
// layer of validation (an expanded path whose length matches the
// reported length *is* a certificate of soundness).
//
// Provenance kinds mirror the candidate sources in Combine:
//
//	provSmall  — the §7.1 auxiliary-graph value; expanded from the
//	             immutable witness snapshot (ProvSnapshot), so it keeps
//	             working after the heavy path state is released.
//	provVia    — d(s,r,e) + d(r,t) through landmark r (Algorithm 3 or
//	             4); expands to a d(s,r,e)-realizing path (a classic
//	             crossing-edge witness in the single-source pipeline,
//	             the §8 provenance plane in the multi-source one, or the
//	             canonical s→r path when e is off it) followed by the
//	             canonical r→t path.
//	provDirect — a landmark target served by its own LenSR row.
const (
	provNone int8 = iota
	provSmall
	provVia
	provDirect
)

type provEntry struct {
	kind int8
	r    int32 // the landmark for provVia
}

// ReconstructPath expands the replacement path for target t avoiding
// the i-th edge of its canonical path. It returns nil when no
// replacement path exists, and an error when path tracking was not
// enabled or no provenance was recorded (which would be a bug).
func (ps *PerSource) ReconstructPath(t int32, i int) ([]int32, error) {
	if !ps.TrackPaths {
		return nil, fmt.Errorf("ssrp: Params.TrackPaths was not enabled")
	}
	if ps.prov == nil || t < 0 || int(t) >= len(ps.prov) || i < 0 || i >= len(ps.prov[t]) {
		return nil, fmt.Errorf("ssrp: no provenance for t=%d i=%d", t, i)
	}
	entry := ps.prov[t][i]
	switch entry.kind {
	case provNone:
		return nil, nil // Inf: no replacement path
	case provSmall:
		if ps.Snap == nil {
			return nil, fmt.Errorf("ssrp: provenance snapshot missing for t=%d i=%d (bug: solver did not SnapshotProvenance)", t, i)
		}
		return ps.Snap.PathVertices(t, i), nil
	case provDirect:
		return ps.landmarkPrefix(t, i)
	case provVia:
		return ps.reconstructVia(entry.r, t, i)
	}
	return nil, fmt.Errorf("ssrp: unknown provenance kind %d", entry.kind)
}

// landmarkPrefix expands a d(s,r,e_i)-realizing path (the LenSR[r][i]
// value): through the installed multi-source provenance plane when one
// is set, else through the classic crossing-edge witnesses the
// single-source pipeline records.
func (ps *PerSource) landmarkPrefix(r int32, i int) ([]int32, error) {
	if ps.landmarkPath != nil {
		return ps.landmarkPath(r, i)
	}
	return ps.WitnessPath(ps.witness, ps.Sh.Tree[r], r, i)
}

// WitnessPath expands cell (h, i) of rows that classic.Rows filled
// over T_s with crossing-edge witnesses wits: a d(s,h,e_i)-realizing
// walk, s first. th is h's BFS tree. Both row sets use it: LenSR's
// witnesses here, the multi-source solve's center rows there.
func (ps *PerSource) WitnessPath(wits map[int32][]classic.Witness, th *bfs.Tree, h int32, i int) ([]int32, error) {
	ws := wits[h]
	if ws == nil || i >= len(ws) {
		return nil, fmt.Errorf("ssrp: missing witness for hub %d index %d", h, i)
	}
	p := ws[i].BuildPath(ps.Ts, th)
	if p == nil {
		return nil, fmt.Errorf("ssrp: witness for hub %d index %d is no-path", h, i)
	}
	return p, nil
}

// reconstructVia expands d(s,r,e) + canonical(r→t).
func (ps *PerSource) reconstructVia(r, t int32, i int) ([]int32, error) {
	e := ps.EdgeAt(t, i)
	var prefix []int32
	switch {
	case r == ps.S:
		prefix = []int32{ps.S}
	case !ps.AncS.EdgeOnRootPath(ps.Sh.G, e, r):
		prefix = ps.Ts.PathTo(r) // canonical s→r avoids e outright
	default:
		var err error
		if prefix, err = ps.landmarkPrefix(r, i); err != nil {
			return nil, err
		}
	}
	suffix := ps.Sh.Tree[r].PathTo(t) // r … t
	out := make([]int32, 0, len(prefix)+len(suffix)-1)
	out = append(out, prefix...)
	out = append(out, suffix[1:]...)
	return out, nil
}

// EdgeAt returns the edge id at position i of the canonical path to t
// (O(depth) walk; reconstruction is an on-demand operation). Exposed
// for the multi-source provenance plane, which shares the indexing.
func (ps *PerSource) EdgeAt(t int32, i int) int32 {
	return ps.Ts.EdgeAt(t, int32(i))
}
