package msrp

import (
	"testing"

	"msrp/internal/graph"
	"msrp/internal/rp"
	"msrp/internal/ssrp"
	"msrp/internal/xrand"
)

// trackedSolve runs a tracked solve on a sparse chorded cycle with a
// shrunken suffix unit — a configuration measured to make the small,
// canonical-detour, AND chained-detour classes all win entries (the
// MTC classes never win on these families: the landmark-detour scan
// precedes them and always finds a realizer; TestCompactPathArena
// covers their storage directly).
func trackedSolve(t *testing.T, seed uint64) (*graph.Graph, *Solution) {
	t.Helper()
	g := graph.CycleWithChords(xrand.New(7), 120, 6)
	p := DefaultParams()
	p.Seed = seed
	p.SampleBoost = 2
	p.SuffixScale = 0.1
	p.TrackPaths = true
	sol, err := Solve(g, []int32{0, 30, 60, 90}, p)
	if err != nil {
		t.Fatal(err)
	}
	return g, sol
}

// TestCompactProvenanceBitIdentical is the compaction contract: for
// every finite LenSR entry of every source, the compact expansion is
// byte-for-byte the walk the full plane produced, and the retained
// footprint shrinks.
func TestCompactProvenanceBitIdentical(t *testing.T) {
	g, sol := trackedSolve(t, 5)
	pv := sol.Prov
	if pv == nil {
		t.Fatal("tracked solve returned no provenance plane")
	}

	// Raw expansions of the complete finite candidate space, captured
	// before compaction drops the plane.
	type key struct {
		si int
		r  int32
		i  int
	}
	raw := make(map[key][]int32)
	kinds := make(map[uint8]int)
	for si, ps := range sol.PerSource {
		for r, row := range ps.LenSR {
			for i, v := range row {
				if v >= rp.Inf {
					continue
				}
				e := ps.EdgeAt(r, i)
				p, w, err := pv.expandLenSR(si, r, int32(i), e, v, 0)
				if err != nil {
					t.Fatalf("raw expand (si=%d r=%d i=%d): %v", si, r, i, err)
				}
				raw[key{si, r, i}] = p
				kinds[w.kind]++
			}
		}
	}
	if len(raw) == 0 {
		t.Fatal("no finite LenSR entries; test graph too sparse")
	}
	for _, k := range []uint8{cSmall, cViaCanon, cViaChain} {
		if kinds[k] == 0 {
			t.Fatalf("winner class %d never exercised (kinds=%v); tune the test graph", k, kinds)
		}
	}

	rawBytes := sol.Stats.ProvenanceBytes
	if err := sol.CompactProvenance(); err != nil {
		t.Fatal(err)
	}
	if sol.Prov != nil {
		t.Fatal("CompactProvenance left the full plane installed")
	}
	if len(sol.Compact) != len(sol.PerSource) {
		t.Fatalf("got %d compact records for %d sources", len(sol.Compact), len(sol.PerSource))
	}
	if sol.Stats.ProvenanceBytes >= rawBytes {
		t.Fatalf("compaction did not shrink ProvenanceBytes: %d -> %d", rawBytes, sol.Stats.ProvenanceBytes)
	}
	t.Logf("ProvenanceBytes %d -> %d (%.1fx); winner kinds: %v",
		rawBytes, sol.Stats.ProvenanceBytes, float64(rawBytes)/float64(sol.Stats.ProvenanceBytes), kinds)

	for k, want := range raw {
		got, err := sol.Compact[k.si].expand(k.r, k.i, 0)
		if err != nil {
			t.Fatalf("compact expand (si=%d r=%d i=%d): %v", k.si, k.r, k.i, err)
		}
		if len(got) != len(want) {
			t.Fatalf("compact expand (si=%d r=%d i=%d): length %d != raw %d", k.si, k.r, k.i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("compact expand (si=%d r=%d i=%d): vertex %d is %d, raw had %d",
					k.si, k.r, k.i, j, got[j], want[j])
			}
		}
	}

	// End to end: the repointed ReconstructPath still certifies every
	// answer against the compact plane.
	for i, res := range sol.Results {
		if _, failures := rp.VerifyReconstructions(g, res, 1, sol.PerSource[i].ReconstructPath); len(failures) > 0 {
			t.Fatalf("source %d post-compaction reconstruction failures: %v", i, failures[:min(3, len(failures))])
		}
	}
}

// TestCompactProvenanceDeterministic: same solve, same compaction —
// bit-identical layout and footprint.
func TestCompactProvenanceDeterministic(t *testing.T) {
	_, a := trackedSolve(t, 9)
	_, b := trackedSolve(t, 9)
	if err := a.CompactProvenance(); err != nil {
		t.Fatal(err)
	}
	if err := b.CompactProvenance(); err != nil {
		t.Fatal(err)
	}
	for i := range a.Compact {
		ca, cb := a.Compact[i], b.Compact[i]
		if ca.Bytes() != cb.Bytes() {
			t.Fatalf("source %d: compact bytes differ: %d vs %d", i, ca.Bytes(), cb.Bytes())
		}
		for j := range ca.kinds {
			if ca.kinds[j] != cb.kinds[j] || ca.aux[j] != cb.aux[j] {
				t.Fatalf("source %d slot %d: layout differs", i, j)
			}
		}
		for j := range ca.arena {
			if ca.arena[j] != cb.arena[j] {
				t.Fatalf("source %d arena word %d differs", i, j)
			}
		}
	}
}

// TestCompactPathArena covers the cPath storage class directly (no
// natural solve on the undirected test families produces an MTC winner
// — the landmark-detour scan always realizes the value first): a
// hand-built record must return an independent copy of the arena walk.
func TestCompactPathArena(t *testing.T) {
	cp := &CompactProv{
		base:  map[int32]int32{7: 0},
		kinds: []uint8{cPath, cNone},
		aux:   []int32{0, -1},
		arena: []int32{4, 3, 9, 2, 7},
	}
	// slot (7,0) is a stored 4-vertex walk; the trailing cNone slot
	// pads the row to the LenSR shape expand bounds against.
	cp.ps = &ssrp.PerSource{LenSR: map[int32][]int32{7: {3, rp.Inf}}}
	got, err := cp.expand(7, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []int32{3, 9, 2, 7}
	if len(got) != len(want) {
		t.Fatalf("arena expand: got %v want %v", got, want)
	}
	for j := range got {
		if got[j] != want[j] {
			t.Fatalf("arena expand: got %v want %v", got, want)
		}
	}
	got[0] = 99
	if cp.arena[1] != 3 {
		t.Fatal("arena expansion aliases the arena; must copy")
	}
	if _, err := cp.expand(7, 1, 0); err == nil {
		t.Fatal("expanding a cNone slot must error")
	}
}

// TestCompactProvenanceNoTracking: compaction of an untracked solve is
// a no-op, not an error.
func TestCompactProvenanceNoTracking(t *testing.T) {
	g := graph.Cycle(30)
	sol, err := Solve(g, []int32{0, 15}, testParams(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := sol.CompactProvenance(); err != nil {
		t.Fatal(err)
	}
	if sol.Compact != nil {
		t.Fatal("untracked solve grew compact records")
	}
}
