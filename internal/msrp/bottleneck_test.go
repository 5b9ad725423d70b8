package msrp

import (
	"testing"

	"msrp/internal/graph"
	"msrp/internal/naive"
	"msrp/internal/rp"
	"msrp/internal/xrand"
)

func bottleneckParams(seed uint64) Params {
	p := testParams(seed)
	p.PaperBottleneck = true
	return p
}

func TestBottleneckModeExactOnFamilies(t *testing.T) {
	// The paper-faithful §8.3 assembly, verified end to end on the same
	// families as the default mode.
	requireExact(t, graph.Cycle(50), []int32{0, 25}, bottleneckParams(1))
	requireExact(t, graph.Grid(5, 8), []int32{0, 39}, bottleneckParams(2))
	requireExact(t, graph.Barbell(5, 3), []int32{0, 11}, bottleneckParams(3))
	rng := xrand.New(4)
	for trial := 0; trial < 6; trial++ {
		n := 30 + rng.Intn(40)
		g := graph.RandomConnected(rng, n, n+rng.Intn(2*n))
		requireExact(t, g, []int32{0, int32(n / 2)}, bottleneckParams(uint64(trial)+10))
	}
}

func TestBottleneckModeCycleChords(t *testing.T) {
	rng := xrand.New(5)
	for trial := 0; trial < 4; trial++ {
		g := graph.CycleWithChords(rng, 40+rng.Intn(30), 4)
		n := int32(g.NumVertices())
		requireExact(t, g, []int32{0, n / 2}, bottleneckParams(uint64(trial)+20))
	}
}

func TestBottleneckSoundnessAtPaperConstants(t *testing.T) {
	// The known §8.3 caveat (terminal intervals) could only ever cause
	// *undershoot*; watch for it explicitly across many unboosted runs.
	rng := xrand.New(6)
	undershoots := 0
	for trial := 0; trial < 8; trial++ {
		n := 25 + rng.Intn(35)
		g := graph.RandomConnected(rng, n, n+rng.Intn(2*n))
		p := DefaultParams()
		p.PaperBottleneck = true
		p.Seed = uint64(trial) + 40
		got, _, err := solveT(g, []int32{0}, p)
		if err != nil {
			t.Fatal(err)
		}
		want := naive.SSRP(g, 0)
		for tt := range got[0].Len {
			for j := range got[0].Len[tt] {
				if got[0].Len[tt][j] < want.Len[tt][j] {
					undershoots++
				}
			}
		}
	}
	// We report rather than require zero: the mode reproduces the
	// paper's construction including its caveat. Zero is the expected
	// outcome on random graphs; a nonzero count is worth knowing about.
	if undershoots > 0 {
		t.Logf("paper-bottleneck mode undershot %d entries (the terminal-interval corner in bottleneck.go's header)", undershoots)
	}
}

func TestBottleneckStats(t *testing.T) {
	g := graph.Cycle(60)
	_, stats, err := solveT(g, []int32{0, 30}, bottleneckParams(7))
	if err != nil {
		t.Fatal(err)
	}
	if stats.BNNodes == 0 || stats.BNArcs == 0 {
		t.Fatal("bottleneck aux graph stats empty")
	}
	if stats.Sweeps != 0 {
		t.Fatal("paper mode must not run sweeps")
	}
}

func TestModesAgreeWhenBothExact(t *testing.T) {
	rng := xrand.New(8)
	g := graph.RandomConnected(rng, 60, 150)
	sources := []int32{0, 30}
	a, _, err := solveT(g, sources, testParams(9))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := solveT(g, sources, bottleneckParams(9))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if d := rp.Diff(a[i], b[i]); d != "" {
			t.Fatalf("modes disagree for source %d: %s", sources[i], d)
		}
	}
}

func TestPaperBottleneckCornerIsReal(t *testing.T) {
	// Empirical confirmation of bottleneck.go's caveat: on this
	// fixed instance the paper's literal §8.3 assembly *undershoots*
	// (reports replacement lengths below the truth) while the default
	// assembly stays exact. Root cause: the bottleneck edge is chosen
	// by argmax of MTC, but on terminal intervals the true sr⋄e
	// ordering can differ once small-path candidates interfere, so the
	// bottleneck value applied to sibling edges is not an upper bound.
	//
	// If this test ever fails because undershoots == 0, a change has
	// (perhaps accidentally) fixed the corner — update the caveat in
	// bottleneck.go's header and experiment E10 in internal/bench
	// accordingly.
	rng := xrand.New(77)
	_ = graph.RandomConnected(rng, 240, 4*240) // keep rng stream aligned with E10
	g := graph.CycleWithChords(rng, 240, 240/25)
	sources := []int32{0, 120}
	p := DefaultParams()
	p.Seed = 240
	p.PaperBottleneck = true

	results, _, err := solveT(g, sources, p)
	if err != nil {
		t.Fatal(err)
	}
	under, over := 0, 0
	for i, s := range sources {
		want := naive.SSRP(g, s)
		for tt := range results[i].Len {
			for j := range results[i].Len[tt] {
				got, w := results[i].Len[tt][j], want.Len[tt][j]
				if got < w {
					under++
				} else if got > w {
					over++
				}
			}
		}
		_ = s
	}
	if under == 0 {
		t.Fatal("expected the documented §8.3 undershoot on this instance; " +
			"if intentional, update the bottleneck.go caveat / internal/bench E10")
	}
	t.Logf("paper §8.3 mode: %d undershoots, %d overshoots (documented corner)", under, over)

	// The default assembly must be exact on the same instance.
	p.PaperBottleneck = false
	results, _, err = solveT(g, sources, p)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sources {
		want := naive.SSRP(g, s)
		if mism, _ := rp.CountMismatches(want, results[i]); mism != 0 {
			t.Fatalf("default mode inexact on source %d: %d mismatches", s, mism)
		}
	}
}
