package msrp

import (
	"context"
	"testing"

	"msrp/internal/graph"
	"msrp/internal/naive"
	"msrp/internal/rp"
	"msrp/internal/ssrp"
	"msrp/internal/xrand"
)

// testParams mirrors the ssrp test configuration: boosted sampling so
// the w.h.p. lemmas hold at toy sizes, shrunken suffix unit so the
// far/near machinery activates on small graphs.
func testParams(seed uint64) Params {
	p := DefaultParams()
	p.Seed = seed
	p.SampleBoost = 12
	p.SuffixScale = 0.25
	return p
}

// solveT is the legacy 3-tuple shape of Solve, kept as a test shim so
// the pre-Solution assertions read unchanged.
func solveT(g *graph.Graph, sources []int32, p Params) ([]*rp.Result, *Stats, error) {
	sol, err := Solve(g, sources, p)
	if err != nil {
		return nil, nil, err
	}
	return sol.Results, sol.Stats, nil
}

func requireExact(t *testing.T, g *graph.Graph, sources []int32, p Params) {
	t.Helper()
	got, _, err := solveT(g, sources, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(sources) {
		t.Fatalf("got %d results for %d sources", len(got), len(sources))
	}
	for i, s := range sources {
		want := naive.SSRP(g, s)
		if d := rp.Diff(want, got[i]); d != "" {
			t.Fatalf("source %d: %s", s, d)
		}
	}
}

func TestTwoSourcesCycle(t *testing.T) {
	g := graph.Cycle(50)
	requireExact(t, g, []int32{0, 25}, testParams(1))
}

func TestManySourcesCycle(t *testing.T) {
	g := graph.Cycle(64)
	requireExact(t, g, []int32{0, 9, 17, 33, 48}, testParams(2))
}

func TestGridMultiSource(t *testing.T) {
	g := graph.Grid(5, 8)
	requireExact(t, g, []int32{0, 39, 22}, testParams(3))
}

func TestLongGridMultiSource(t *testing.T) {
	g := graph.Grid(2, 30)
	requireExact(t, g, []int32{0, 59, 30}, testParams(4))
}

func TestRandomGraphsMultiSource(t *testing.T) {
	rng := xrand.New(5)
	for trial := 0; trial < 8; trial++ {
		n := 30 + rng.Intn(40)
		m := n + rng.Intn(2*n)
		g := graph.RandomConnected(rng, n, m)
		sigma := 1 + rng.Intn(4)
		seen := map[int32]bool{}
		var sources []int32
		for len(sources) < sigma {
			s := int32(rng.Intn(n))
			if !seen[s] {
				seen[s] = true
				sources = append(sources, s)
			}
		}
		requireExact(t, g, sources, testParams(uint64(trial)+10))
	}
}

func TestCycleWithChordsMultiSource(t *testing.T) {
	rng := xrand.New(6)
	for trial := 0; trial < 5; trial++ {
		g := graph.CycleWithChords(rng, 40+rng.Intn(30), 4)
		n := int32(g.NumVertices())
		requireExact(t, g, []int32{0, n / 3, 2 * n / 3}, testParams(uint64(trial)+30))
	}
}

func TestPaperBottleneckCornerIsReal(t *testing.T) {
	// At paper constants, §8.3's literal bottleneck-edge assembly
	// undershot on this instance (EXPERIMENTS.md, E10 final row set);
	// the default assembly must stay exact on it.
	rng := xrand.New(77)
	_ = graph.RandomConnected(rng, 240, 4*240)
	p := DefaultParams()
	p.Seed = 240
	requireExact(t, graph.CycleWithChords(rng, 240, 240/25), []int32{0, 120}, p)
}

func TestBarbellMultiSource(t *testing.T) {
	g := graph.Barbell(5, 3)
	last := int32(g.NumVertices() - 1)
	requireExact(t, g, []int32{0, last}, testParams(7))
}

func TestTreeAllInf(t *testing.T) {
	g := graph.Caterpillar(6, 2)
	got, _, err := solveT(g, []int32{0, 5}, testParams(8))
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range got {
		for tt := range res.Len {
			for i, v := range res.Len[tt] {
				if v != rp.Inf {
					t.Fatalf("tree must have no replacement paths: s=%d t=%d i=%d = %d",
						res.Source, tt, i, v)
				}
			}
		}
	}
}

func TestDisconnectedMultiSource(t *testing.T) {
	b := graph.NewBuilder(12)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {6, 7}, {7, 8}, {8, 6}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g := b.MustBuild()
	requireExact(t, g, []int32{0, 6}, testParams(9))
}

func TestSigmaOneMatchesSSRP(t *testing.T) {
	// With one source, MSRP and SSRP answers must both equal the truth
	// (they may differ in internals but not output).
	rng := xrand.New(10)
	g := graph.RandomConnected(rng, 60, 140)
	p := testParams(11)
	gotM, _, err := solveT(g, []int32{7}, p)
	if err != nil {
		t.Fatal(err)
	}
	gotS, _, err := ssrp.Solve(g, 7, p)
	if err != nil {
		t.Fatal(err)
	}
	want := naive.SSRP(g, 7)
	if d := rp.Diff(want, gotM[0]); d != "" {
		t.Fatalf("msrp: %s", d)
	}
	if d := rp.Diff(want, gotS); d != "" {
		t.Fatalf("ssrp: %s", d)
	}
}

func TestSoundnessAtPaperConstants(t *testing.T) {
	// Unboosted sampling on small graphs: completeness may fail but
	// soundness never (no value below the truth, no finite value where
	// the truth is Inf).
	rng := xrand.New(12)
	for trial := 0; trial < 5; trial++ {
		n := 25 + rng.Intn(35)
		g := graph.RandomConnected(rng, n, n+rng.Intn(2*n))
		sources := []int32{int32(rng.Intn(n)), int32(n - 1 - rng.Intn(n/2))}
		if sources[0] == sources[1] {
			sources = sources[:1]
		}
		p := DefaultParams()
		p.Seed = uint64(trial) + 40
		got, _, err := solveT(g, sources, p)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range sources {
			want := naive.SSRP(g, s)
			for tt := range got[i].Len {
				for j := range got[i].Len[tt] {
					gv, wv := got[i].Len[tt][j], want.Len[tt][j]
					if gv < wv {
						t.Fatalf("UNSOUND: trial %d s=%d t=%d i=%d: %d < %d", trial, s, tt, j, gv, wv)
					}
					if wv == rp.Inf && gv != rp.Inf {
						t.Fatalf("trial %d: finite %d where truth Inf", trial, gv)
					}
				}
			}
		}
	}
}

func TestStatsPopulated(t *testing.T) {
	g := graph.Cycle(60)
	_, stats, err := solveT(g, []int32{0, 30}, testParams(13))
	if err != nil {
		t.Fatal(err)
	}
	if stats.CenterCount == 0 || len(stats.CenterLevelSizes) == 0 {
		t.Fatal("center stats empty")
	}
	if stats.CLNodes == 0 {
		t.Fatal("aux graph stats empty")
	}
	if stats.Queries == 0 {
		t.Fatal("no queries")
	}
}

func TestInvalidInputs(t *testing.T) {
	g := graph.Cycle(6)
	if _, _, err := solveT(g, nil, DefaultParams()); err == nil {
		t.Fatal("no sources accepted")
	}
	if _, _, err := solveT(g, []int32{0, 0}, DefaultParams()); err == nil {
		t.Fatal("duplicate sources accepted")
	}
	if _, _, err := solveT(g, []int32{9}, DefaultParams()); err == nil {
		t.Fatal("out-of-range source accepted")
	}
}

func TestDeterminism(t *testing.T) {
	g := graph.CycleWithChords(xrand.New(20), 50, 5)
	p := testParams(21)
	a, _, err := solveT(g, []int32{0, 20}, p)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := solveT(g, []int32{0, 20}, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if d := rp.Diff(a[i], b[i]); d != "" {
			t.Fatalf("nondeterministic: %s", d)
		}
	}
}

func TestIntervalDecomposition(t *testing.T) {
	// Boundaries must start at 0, end at len-1, be strictly increasing,
	// and interior boundaries must be centers with the ascending/
	// descending priority shape.
	rng := xrand.New(22)
	g := graph.RandomConnected(rng, 80, 160)
	sh, err := ssrp.NewShared(g, []int32{0}, testParams(23))
	if err != nil {
		t.Fatal(err)
	}
	ctr := newCenters(sh, sh.DeriveRNG())
	ps := sh.NewPerSource(0)
	for r := int32(1); r < 80; r++ {
		if !ps.Ts.Reachable(r) {
			continue
		}
		path := ps.Ts.PathTo(r)
		bs := ctr.intervalsOn(path)
		if bs[0] != 0 || int(bs[len(bs)-1]) != len(path)-1 {
			t.Fatalf("r=%d: boundaries %v do not span path of length %d", r, bs, len(path)-1)
		}
		prevPos := int32(-1)
		for _, pos := range bs {
			if pos <= prevPos {
				t.Fatalf("r=%d: non-increasing boundaries %v", r, bs)
			}
			prevPos = pos
		}
		// Interior boundaries are centers, and their priorities are
		// strictly unimodal: strictly ascending to the peak, strictly
		// descending after it.
		var prios []int
		for _, pos := range bs[1 : len(bs)-1] {
			prio := ctr.Priority(path[pos])
			if prio < 0 {
				t.Fatalf("r=%d: interior boundary %d is not a center", r, pos)
			}
			prios = append(prios, prio)
		}
		// The peak may be a plateau of exactly two entries: the
		// ascending chain stops at the *first* maximum and the
		// descending chain may record a *different* center of the same
		// maximal priority further along the path.
		peak := 0
		for i, p := range prios {
			if p > prios[peak] {
				peak = i
			}
		}
		plateauEnd := peak
		if peak+1 < len(prios) && prios[peak+1] == prios[peak] {
			plateauEnd = peak + 1
		}
		for i := 1; i <= peak; i++ {
			if prios[i] <= prios[i-1] {
				t.Fatalf("r=%d: ascending chain not strict: %v", r, prios)
			}
		}
		for i := plateauEnd + 1; i < len(prios); i++ {
			if prios[i] >= prios[i-1] {
				t.Fatalf("r=%d: descending chain not strict: %v", r, prios)
			}
		}
	}
}

func TestSeedTablePathsAreSound(t *testing.T) {
	// Every finite seed cell (c, r, i) → w, with e the edge at index i
	// of T_c's c→r path, must be witnessed by an e-avoiding c→r walk of
	// length w; verify against the brute-force distance in G − e (w
	// must be ≥ it).
	rng := xrand.New(24)
	g := graph.RandomConnected(rng, 40, 90)
	sh, err := ssrp.NewShared(g, []int32{0, 5}, testParams(25))
	if err != nil {
		t.Fatal(err)
	}
	ctr := newCenters(sh, sh.DeriveRNG())
	var perSrc []*ssrp.PerSource
	for _, s := range []int32{0, 5} {
		ps := sh.NewPerSource(s)
		ps.BuildSmallNear()
		perSrc = append(perSrc, ps)
	}
	seed, err := buildSeedTable(context.Background(), sh, perSrc, ctr)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for ci, c := range ctr.List {
		for k, r := range sh.List {
			for i, w := range seed.row(int32(ci), int32(k)) {
				if w >= rp.Inf || count == 500 { // cap the brute-force work
					continue
				}
				e := ctr.Tree[c].EdgeAt(r, int32(i))
				if truth := naive.OnePair(g, c, r, e); w < truth {
					t.Errorf("seed (c=%d,r=%d,e=%d) = %d below truth %d", c, r, e, w, truth)
				}
				count++
			}
		}
	}
	if count == 0 {
		t.Fatal("seed cells empty — no small paths enumerated?")
	}
}

func TestAllPairsMode(t *testing.T) {
	// σ = n: the Bernstein–Karger end of the spectrum.
	g := graph.Cycle(16)
	sources := make([]int32, 16)
	for i := range sources {
		sources[i] = int32(i)
	}
	requireExact(t, g, sources, testParams(26))
}

func TestMediumRandomStress(t *testing.T) {
	rng := xrand.New(27)
	g := graph.RandomConnected(rng, 120, 300)
	requireExact(t, g, []int32{3, 50, 99, 110}, testParams(28))
}

func TestParallelDeterminism(t *testing.T) {
	// Output must be bit-identical regardless of worker count, and the
	// race detector (when enabled) must stay silent.
	g := graph.CycleWithChords(xrand.New(50), 60, 5)
	sources := []int32{0, 20, 40}
	var baseline []*rp.Result
	for _, workers := range []int{1, 2, 4, 8} {
		p := testParams(51)
		p.Parallelism = workers
		res, stats, err := solveT(g, sources, p)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Queries == 0 {
			t.Fatal("stats lost under parallel merge")
		}
		if baseline == nil {
			baseline = res
			continue
		}
		for i := range res {
			if d := rp.Diff(baseline[i], res[i]); d != "" {
				t.Fatalf("workers=%d: %s", workers, d)
			}
		}
	}
}
