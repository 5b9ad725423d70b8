package ssrp

import (
	"fmt"
	"testing"

	"msrp/internal/engine"
	"msrp/internal/graph"
	"msrp/internal/rp"
	"msrp/internal/xrand"
)

// referenceCombine is a test-only copy of the edge-by-edge combine the
// band scan replaced: for each target and each path edge, the §7.1
// small value (near edges) and then every landmark of the edge's level,
// each tested through map lookups, EdgeOnRootPath and dSR. It returns
// the lengths and the provenance rows without touching ps.prov.
func referenceCombine(ps *PerSource, stats *Stats) (*rp.Result, [][]provEntry) {
	sh := ps.Sh
	g := sh.G
	res := rp.NewResult(ps.Ts)
	var prov [][]provEntry
	if ps.TrackPaths {
		prov = make([][]provEntry, g.NumVertices())
	}
	for t := int32(0); t < int32(g.NumVertices()); t++ {
		l := ps.Ts.Dist[t]
		if t == ps.S || l <= 0 {
			continue
		}
		row := res.Len[t]
		if stats != nil {
			stats.Queries += int64(l)
		}
		var provRow []provEntry
		if ps.TrackPaths {
			provRow = make([]provEntry, l)
			prov[t] = provRow
		}
		if direct := ps.LenSR[t]; direct != nil {
			for i := range row {
				if direct[i] < row[i] {
					row[i] = direct[i]
					if provRow != nil {
						provRow[i] = provEntry{kind: provDirect, r: t}
					}
				}
			}
		}
		x := t
		for i := l - 1; i >= 0; i-- {
			e := ps.Ts.ParentEdge[x]
			k := sh.farBand(l - i)
			if k < 0 {
				if v := ps.Small.Value(t, int(i)); v < row[i] {
					row[i] = v
					if provRow != nil {
						provRow[i] = provEntry{kind: provSmall}
					}
				}
			}
			referenceScanEdge(ps, t, int(i), e, k, row, provRow, stats)
			x = ps.Ts.Parent[x]
		}
	}
	return res, prov
}

// referenceScanEdge is the parent's combineNear/combineFar landmark
// loop for one edge: L_0 for near edges, L_k (L_0 when flat) within
// the band threshold for far ones.
func referenceScanEdge(ps *PerSource, t int32, i int, e int32, k int, row []int32, provRow []provEntry, stats *Stats) {
	sh := ps.Sh
	level, thr := sh.Landmarks.Level(0), 0.0
	if k >= 0 {
		thr = sh.farThreshold(k)
		if !sh.Params.FlatLandmarks {
			level = sh.Landmarks.Level(k)
		}
	}
	for _, r := range level {
		if stats != nil {
			if k < 0 {
				stats.NearLargeScans++
			} else {
				stats.FarScans++
			}
		}
		dt := sh.Tree[r].Dist[t]
		if dt < 0 || (k >= 0 && float64(dt) > thr) {
			continue
		}
		if sh.Anc[r].EdgeOnRootPath(sh.G, e, t) {
			continue
		}
		d := ps.dSR(r, i, e)
		if d >= inf {
			continue
		}
		if cand := d + dt; cand < row[i] {
			row[i] = cand
			if provRow != nil {
				provRow[i] = provEntry{kind: provVia, r: r}
			}
		}
	}
}

// TestCombineMatchesReference diffs the landmark-major band scan
// against the edge-by-edge reference on families that reach every
// branch: dense random graphs at paper constants (all edges near),
// cycles long enough for several far bands (leveled and flat), and a
// boosted chorded cycle. Lengths, every provenance entry (kind and
// landmark) and the Queries/NearLargeScans/FarScans counters must be
// identical, tracked and untracked. The reference runs tracked once per
// source (tracking never changes its lengths); a cycle looks the same
// from every source, so its families check only the first.
func TestCombineMatchesReference(t *testing.T) {
	rng := xrand.New(20260418)
	paper := DefaultParams()
	cycleBands := DefaultParams()
	cycleBands.SampleBoost, cycleBands.SuffixScale = 2, 0.1
	flat := cycleBands
	flat.FlatLandmarks = true
	families := []struct {
		name          string
		g             *graph.Graph
		sigma, checks int
		p             Params
		far           bool // the family has far edges
	}{
		{"random-200-800", graph.RandomConnected(rng, 200, 800), 8, 8, paper, false},
		{"random-300-1200", graph.RandomConnected(rng, 300, 1200), 4, 4, paper, false},
		{"cycle-800-leveled", graph.Cycle(800), 2, 1, cycleBands, true},
		{"cycle-800-flat", graph.Cycle(800), 2, 1, flat, true},
		{"cycle-1200", graph.Cycle(1200), 2, 1, paper, true},
		{"cycle-chords-200", graph.CycleWithChords(rng, 200, 8), 4, 4, testParams(3), true},
	}
	for _, f := range families {
		t.Run(f.name, func(t *testing.T) {
			n := f.g.NumVertices()
			sources := make([]int32, f.sigma)
			for i := range sources {
				sources[i] = int32(i * n / f.sigma)
			}
			sh, err := NewShared(f.g, sources, f.p)
			if err != nil {
				t.Fatal(err)
			}
			var far, nearLarge int64
			for _, s := range sources[:f.checks] {
				ps := sh.NewPerSource(s)
				ps.BuildSmallNear()
				ps.ComputeLenSRClassicPool(engine.New(1))
				ps.TrackPaths = true
				var wantSt Stats
				want, wantProv := referenceCombine(ps, &wantSt)
				for _, track := range []bool{false, true} {
					label := fmt.Sprintf("s=%d track=%v", s, track)
					ps.TrackPaths = track
					var gotSt Stats
					got := ps.Combine(&gotSt)
					if d := rp.Diff(want, got); d != "" {
						t.Fatalf("%s: lengths: %s", label, d)
					}
					if gotSt.Queries != wantSt.Queries || gotSt.NearLargeScans != wantSt.NearLargeScans || gotSt.FarScans != wantSt.FarScans {
						t.Fatalf("%s: counters %+v, want %+v", label, gotSt, wantSt)
					}
					if !track {
						continue
					}
					far, nearLarge = far+gotSt.FarScans, nearLarge+gotSt.NearLargeScans
					for v := range wantProv {
						if len(ps.prov[v]) != len(wantProv[v]) {
							t.Fatalf("%s: t=%d has %d provenance entries, want %d", label, v, len(ps.prov[v]), len(wantProv[v]))
						}
						for i, w := range wantProv[v] {
							if g := ps.prov[v][i]; g != w {
								t.Fatalf("%s: provenance (t=%d, i=%d) = %+v, want %+v", label, v, i, g, w)
							}
						}
					}
				}
			}
			if nearLarge == 0 || f.far != (far > 0) {
				t.Fatalf("scan counts %d near-large, %d far: a band went unexercised", nearLarge, far)
			}
			t.Logf("%d near-large and %d far scans matched", nearLarge, far)
		})
	}
}
