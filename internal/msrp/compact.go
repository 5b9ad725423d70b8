package msrp

import (
	"fmt"
	"sort"

	"msrp/internal/rp"
	"msrp/internal/ssrp"
)

// Post-solve provenance compaction.
//
// The full Provenance plane retains everything the explain walk *might*
// consult: the §8.1 center rows and witnesses, the §8.2.2 parent chains
// of every auxiliary node, the merged seed table, and the center forest
// — E15 measured it at ~1,000× the transient solve peak. But the walk's
// job is a search: for each finite LenSR[r][i] it scans the candidate
// space until one candidate achieves the value exactly. That search is
// deterministic, so its outcome can be recorded once and the search
// space dropped.
//
// CompactProv is that record — one entry per finite LenSR value, laid
// out as parallel arrays over the rows in sorted-landmark order:
//
//	cSmall    — the §7.1 small value won; re-expand from the retained
//	            witness snapshot (1 byte, nothing stored).
//	cViaCanon — a landmark detour whose prefix is the canonical s→r2
//	            path; store r2, re-expand from the canonical trees.
//	cViaChain — a landmark detour whose prefix is itself a LenSR
//	            expansion; store r2 and recurse into the *compact* entry
//	            (r2, i). The reference always resolves: the raw walk's
//	            recursive call expandLenSR(si, r2, i, e, d2, …) has
//	            d2 = LenSR[r2][i] and e = EdgeAt(r2, i) — e is on the
//	            canonical s→r2 path with the same shared-prefix index i
//	            (the RowDist index identity), so the compact entry at
//	            (r2, i) was built from a top-level walk with identical
//	            arguments, and every finite entry is compacted. Values
//	            strictly decrease along the chain (|r2 r| > 0), so the
//	            recursion terminates.
//	cPath     — an MTC term won. Its expansion threads through the
//	            center rows' witnesses or the G_c parent chains, the
//	            seed table, and the center forest — all dropped by
//	            compaction — so the concrete walk is stored verbatim in
//	            the arena.
//
// Expansion against the compact form reproduces the raw walk's output
// bit for bit: cSmall/cViaCanon/cViaChain rebuild the identical
// vertices from the identical retained inputs, and cPath copies the
// walk the raw expansion produced. The length==value validation is kept
// at every top-level expansion, so a served path remains a certificate.
//
// After compaction a source retains: the witness snapshot and its §7.1
// lookup plane, the LenSR rows, the per-answer provenance entries, and
// this record. The shared landmark forest lives in ssrp.Shared either
// way. Nothing else — which is what makes a source's provenance
// self-contained and individually evictable (oracle.go's byte budget).
const (
	cNone uint8 = iota // Inf / no entry
	cSmall
	cViaCanon
	cViaChain
	cPath
)

// winner names the candidate class that realized a LenSR value in an
// expandLenSR walk, in compact-plane vocabulary.
type winner struct {
	kind uint8
	r2   int32 // the detour landmark for cViaCanon/cViaChain
}

// CompactProv is one source's compacted provenance: the winning
// candidate per finite LenSR entry, immutable after compaction.
type CompactProv struct {
	ps *ssrp.PerSource
	sh *ssrp.Shared

	// base maps landmark r to the first slot of its row in kinds/aux;
	// rows are parallel to LenSR[r] and laid out in ascending-r order.
	base  map[int32]int32
	kinds []uint8
	aux   []int32 // r2 for cVia*, arena offset for cPath, -1 otherwise
	arena []int32 // cPath records: [len, vertices…]
}

// compactOne re-walks every finite LenSR entry of source index si
// through the full plane and records the winners. Landmarks are visited
// in sorted order, so the layout (and Bytes) is deterministic. Every
// expansion is validated before its winner is recorded; any failure
// aborts the source's compaction.
func compactOne(pv *Provenance, si int) (*CompactProv, error) {
	ps := pv.perSrc[si]
	keys := make([]int32, 0, len(ps.LenSR))
	total := 0
	for r, row := range ps.LenSR {
		keys = append(keys, r)
		total += len(row)
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })

	cp := &CompactProv{
		ps:    ps,
		sh:    pv.sh,
		base:  make(map[int32]int32, len(keys)),
		kinds: make([]uint8, total),
		aux:   make([]int32, total),
	}
	slot := int32(0)
	for _, r := range keys {
		cp.base[r] = slot
		row := ps.LenSR[r]
		for i, v := range row {
			k := slot + int32(i)
			cp.aux[k] = -1
			if v >= rp.Inf {
				continue // cNone
			}
			e := ps.EdgeAt(r, i)
			p, w, err := pv.expandLenSR(si, r, int32(i), e, v, 0)
			if err != nil {
				return nil, fmt.Errorf("msrp: compaction of source %d at (r=%d i=%d): %w", ps.S, r, i, err)
			}
			if int32(len(p))-1 != v {
				return nil, fmt.Errorf("msrp: compaction of source %d at (r=%d i=%d): expansion length %d != value %d", ps.S, r, i, len(p)-1, v)
			}
			cp.kinds[k] = w.kind
			switch w.kind {
			case cViaCanon, cViaChain:
				cp.aux[k] = w.r2
			case cPath:
				cp.aux[k] = int32(len(cp.arena))
				cp.arena = append(cp.arena, int32(len(p)))
				cp.arena = append(cp.arena, p...)
			}
		}
		slot += int32(len(row))
	}
	return cp, nil
}

// landmarkPath is the compact plane's drop-in for Provenance's: expand
// the recorded winner for LenSR[r][i] and validate its length against
// the value — the certificate property survives compaction.
func (cp *CompactProv) landmarkPath(r int32, i int) ([]int32, error) {
	row := cp.ps.LenSR[r]
	if row == nil || i < 0 || i >= len(row) {
		return nil, fmt.Errorf("msrp: no landmark value for r=%d i=%d", r, i)
	}
	v := row[i]
	if v >= rp.Inf {
		return nil, fmt.Errorf("msrp: landmark path requested for an unreachable value (r=%d i=%d)", r, i)
	}
	p, err := cp.expand(r, i, 0)
	if err != nil {
		return nil, err
	}
	if int32(len(p))-1 != v {
		return nil, fmt.Errorf("msrp: compact expansion length %d != value %d (r=%d i=%d)", len(p)-1, v, r, i)
	}
	return p, nil
}

// expand rebuilds the recorded walk for slot (r, i).
func (cp *CompactProv) expand(r int32, i int, depth int) ([]int32, error) {
	if depth > len(cp.base)+1 {
		return nil, fmt.Errorf("msrp: compact provenance chain exceeded %d hops (r=%d i=%d)", depth, r, i)
	}
	base, ok := cp.base[r]
	if !ok || i < 0 || i >= len(cp.ps.LenSR[r]) {
		return nil, fmt.Errorf("msrp: no compact entry for r=%d i=%d", r, i)
	}
	k := base + int32(i)
	switch cp.kinds[k] {
	case cSmall:
		if p := cp.ps.Snap.PathVertices(r, i); p != nil {
			return p, nil
		}
		return nil, fmt.Errorf("msrp: compact cSmall entry (r=%d i=%d) has no snapshot path", r, i)
	case cViaCanon:
		r2 := cp.aux[k]
		return appendLeg(cp.ps.Ts.PathTo(r2), cp.sh.Tree[r2].PathTo(r)), nil
	case cViaChain:
		r2 := cp.aux[k]
		prefix, err := cp.expand(r2, i, depth+1)
		if err != nil {
			return nil, err
		}
		return appendLeg(prefix, cp.sh.Tree[r2].PathTo(r)), nil
	case cPath:
		off := cp.aux[k]
		n := cp.arena[off]
		out := make([]int32, n)
		copy(out, cp.arena[off+1:off+1+n])
		return out, nil
	}
	return nil, fmt.Errorf("msrp: compact entry (r=%d i=%d) records no winner (value was Inf at compaction)", r, i)
}

// Bytes returns the compact record's retained footprint: 1 byte per
// kind, 4 per aux slot, 4 per arena word, and the base map at the same
// 24-bytes-per-entry convention auxProv used.
func (cp *CompactProv) Bytes() int64 {
	return int64(len(cp.kinds)) + 4*int64(len(cp.aux)) + 4*int64(len(cp.arena)) + 24*int64(len(cp.base))
}

// CompactProvenance replaces the solution's full provenance plane with
// per-source compact records: every finite LenSR entry of every source
// is re-walked once (in parallel over sources), validated, and its
// winner recorded; then each source's landmark-path expander is
// repointed at its compact record and the full plane — center rows,
// parent chains, seed table, center forest — is released to the
// collector.
// Stats.ProvenanceBytes is recomputed to the post-compaction footprint.
//
// No-op when the solve did not track paths. On error the full plane
// stays installed and fully functional (the caller may keep serving
// from it); the solution is never left half-compacted.
func (sol *Solution) CompactProvenance() error {
	pv := sol.Prov
	if pv == nil {
		return nil
	}
	compact := make([]*CompactProv, len(pv.perSrc))
	errs := make([]error, len(pv.perSrc))
	pv.sh.Pool.Run(len(pv.perSrc), func(i int) {
		compact[i], errs[i] = compactOne(pv, i)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for i, cp := range compact {
		// The method value captures only cp, so dropping sol.Prov below
		// really does let the full plane go.
		pv.perSrc[i].SetLandmarkPath(cp.landmarkPath)
	}
	sol.Compact = compact
	sol.Prov = nil
	var b int64
	for i, ps := range sol.PerSource {
		b += ps.ProvenanceBytes() + compact[i].Bytes()
	}
	sol.Stats.ProvenanceBytes = b
	return nil
}
