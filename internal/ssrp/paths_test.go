package ssrp

import (
	"testing"

	"msrp/internal/graph"
	"msrp/internal/naive"
	"msrp/internal/rp"
	"msrp/internal/xrand"
)

// verifyReconstruction checks that every answer with a finite length
// expands into a genuine replacement path: right endpoints, adjacent
// steps, avoided edge absent, and length exactly equal to both the
// reported and the true replacement length.
func verifyReconstruction(t *testing.T, g *graph.Graph, s int32, p Params) {
	t.Helper()
	res, ps, _, err := SolvePaths(g, s, p)
	if err != nil {
		t.Fatal(err)
	}
	want := naive.SSRP(g, s)
	if d := rp.Diff(want, res); d != "" {
		t.Fatalf("lengths wrong before reconstruction: %s", d)
	}
	checked := 0
	for tt := int32(0); tt < int32(g.NumVertices()); tt++ {
		edges := res.Tree.PathEdgesTo(tt)
		for i := range res.Len[tt] {
			path, err := ps.ReconstructPath(tt, i)
			if err != nil {
				t.Fatalf("t=%d i=%d: %v", tt, i, err)
			}
			if res.Len[tt][i] == rp.Inf {
				if path != nil {
					t.Fatalf("t=%d i=%d: path returned for Inf answer", tt, i)
				}
				continue
			}
			if path == nil {
				t.Fatalf("t=%d i=%d: nil path for finite answer %d", tt, i, res.Len[tt][i])
			}
			if path[0] != s || path[len(path)-1] != tt {
				t.Fatalf("t=%d i=%d: endpoints %d..%d", tt, i, path[0], path[len(path)-1])
			}
			if int32(len(path)-1) != res.Len[tt][i] {
				t.Fatalf("t=%d i=%d: path length %d != reported %d",
					tt, i, len(path)-1, res.Len[tt][i])
			}
			for j := 0; j+1 < len(path); j++ {
				id, ok := g.EdgeID(int(path[j]), int(path[j+1]))
				if !ok {
					t.Fatalf("t=%d i=%d: non-adjacent step %d-%d", tt, i, path[j], path[j+1])
				}
				if id == edges[i] {
					t.Fatalf("t=%d i=%d: path uses the avoided edge", tt, i)
				}
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("nothing reconstructed")
	}
}

func TestReconstructCycle(t *testing.T) {
	verifyReconstruction(t, graph.Cycle(40), 0, testParams(1))
}

func TestReconstructGrid(t *testing.T) {
	verifyReconstruction(t, graph.Grid(5, 8), 0, testParams(2))
	verifyReconstruction(t, graph.Grid(2, 25), 10, testParams(3))
}

func TestReconstructRandom(t *testing.T) {
	rng := xrand.New(4)
	for trial := 0; trial < 8; trial++ {
		n := 25 + rng.Intn(40)
		g := graph.RandomConnected(rng, n, n+rng.Intn(2*n))
		verifyReconstruction(t, g, int32(rng.Intn(n)), testParams(uint64(trial)+10))
	}
}

func TestReconstructCycleChords(t *testing.T) {
	rng := xrand.New(5)
	g := graph.CycleWithChords(rng, 60, 5)
	verifyReconstruction(t, g, 0, testParams(6))
}

func TestReconstructBarbell(t *testing.T) {
	// Mixes Inf (bridges) and finite answers.
	verifyReconstruction(t, graph.Barbell(5, 4), 0, testParams(7))
}

func TestReconstructWithoutTrackingFails(t *testing.T) {
	g := graph.Cycle(10)
	_, _, err := Solve(g, 0, testParams(8))
	if err != nil {
		t.Fatal(err)
	}
	sh, err := NewShared(g, []int32{0}, testParams(8))
	if err != nil {
		t.Fatal(err)
	}
	ps := sh.NewPerSource(0)
	if _, err := ps.ReconstructPath(3, 0); err == nil {
		t.Fatal("expected error without TrackPaths")
	}
}

// TestPathVerticesIntoMatches: the scratch-backed variant must agree
// with PathVertices on every (target, near-edge) pair and reuse the
// caller's buffer when it has the capacity — the §8.2.1 seed-table
// enumeration relies on both.
func TestPathVerticesIntoMatches(t *testing.T) {
	g := graph.CycleWithChords(xrand.New(8), 40, 10)
	sh, err := NewShared(g, []int32{0}, testParams(9))
	if err != nil {
		t.Fatal(err)
	}
	ps := sh.NewPerSource(0)
	ps.BuildSmallNear()
	// Roomy: a small replacement walk can be longer than n−1 (it is a
	// walk, not necessarily a simple path), just never 2n at this size.
	buf := make([]int32, 2*g.NumVertices())
	pairs, reused := 0, 0
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		l := ps.Ts.Dist[v]
		for i := ps.Small.NearStart(v); i < l; i++ {
			want := ps.Small.PathVertices(v, int(i))
			got := ps.Small.PathVerticesInto(buf, v, int(i))
			if (want == nil) != (got == nil) || len(want) != len(got) {
				t.Fatalf("t=%d i=%d: len %d vs %d", v, i, len(got), len(want))
			}
			if want == nil {
				continue
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("t=%d i=%d: vertex %d = %d, want %d", v, i, j, got[j], want[j])
				}
			}
			pairs++
			if &got[0] == &buf[0] {
				reused++
			}
		}
	}
	if pairs == 0 {
		t.Fatal("no small paths found — instance too sparse for the test")
	}
	if reused != pairs {
		t.Fatalf("buffer reused on %d of %d paths", reused, pairs)
	}
}

// TestSnapshotMatchesLiveAndSurvivesRelease pins the ProvSnapshot
// contract: its expansions are identical to the live SmallNear's for
// every (target, near-edge) pair, and they keep working after
// ReleasePathState frees the heavy state (the MSRP pipeline's memory
// discipline), while the live expansion is then a programming error.
func TestSnapshotMatchesLiveAndSurvivesRelease(t *testing.T) {
	g := graph.CycleWithChords(xrand.New(12), 48, 8)
	sh, err := NewShared(g, []int32{0}, testParams(12))
	if err != nil {
		t.Fatal(err)
	}
	ps := sh.NewPerSource(0)
	ps.BuildSmallNear()
	snap := ps.Small.SnapshotProvenance()
	if snap.Bytes() <= 0 {
		t.Fatal("snapshot reports no bytes")
	}

	type key struct {
		t int32
		i int
	}
	want := make(map[key][]int32)
	for tt := int32(0); tt < int32(g.NumVertices()); tt++ {
		for i := ps.Small.NearStart(tt); i < ps.Ts.Dist[tt]; i++ {
			live := ps.Small.PathVertices(tt, int(i))
			got := snap.PathVertices(tt, int(i))
			if (live == nil) != (got == nil) {
				t.Fatalf("t=%d i=%d: live %v, snapshot %v", tt, i, live, got)
			}
			if live == nil {
				continue
			}
			if len(live) != len(got) {
				t.Fatalf("t=%d i=%d: live len %d, snapshot len %d", tt, i, len(live), len(got))
			}
			for j := range live {
				if live[j] != got[j] {
					t.Fatalf("t=%d i=%d: vertex %d differs (%d vs %d)", tt, i, j, live[j], got[j])
				}
			}
			want[key{tt, int(i)}] = got
		}
	}
	if len(want) == 0 {
		t.Fatal("no small paths found")
	}

	ps.Small.ReleasePathState()
	for k, w := range want {
		got := snap.PathVertices(k.t, k.i)
		if len(got) != len(w) {
			t.Fatalf("after release t=%d i=%d: len %d, want %d", k.t, k.i, len(got), len(w))
		}
		for j := range w {
			if got[j] != w[j] {
				t.Fatalf("after release t=%d i=%d: vertex %d differs", k.t, k.i, j)
			}
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("live PathVertices after release did not panic")
			}
		}()
		for k := range want {
			ps.Small.PathVertices(k.t, k.i)
			break
		}
	}()
}
