package msrp

import (
	"context"
	"testing"

	"msrp/internal/engine"
	"msrp/internal/graph"
	"msrp/internal/rp"
	"msrp/internal/ssrp"
	"msrp/internal/xrand"
)

// pipelineFamilies mirrors the public crosscheck families (plus the
// skewed PathStarMix the engine's scheduler is measured on) at sizes
// where the σ-source solve runs in milliseconds, so the determinism
// sweep below stays cheap under -race.
func pipelineFamilies() []struct {
	name    string
	g       *graph.Graph
	sources []int32
} {
	rng := xrand.New(20200808)
	fam := func(name string, g *graph.Graph) struct {
		name    string
		g       *graph.Graph
		sources []int32
	} {
		n := int32(g.NumVertices())
		srcs := []int32{0, n / 3, 2 * n / 3}
		uniq := srcs[:0]
		seen := map[int32]bool{}
		for _, s := range srcs {
			if !seen[s] {
				seen[s] = true
				uniq = append(uniq, s)
			}
		}
		return struct {
			name    string
			g       *graph.Graph
			sources []int32
		}{name, g, uniq}
	}
	out := []struct {
		name    string
		g       *graph.Graph
		sources []int32
	}{
		fam("erdos-renyi-sparse", graph.RandomConnected(rng, 48, 80)),
		fam("erdos-renyi-dense", graph.RandomConnected(rng, 30, 160)),
		fam("grid-4x9", graph.Grid(4, 9)),
		fam("path-with-chords", graph.PathWithChords(rng, 40, 8)),
		fam("cycle-with-chords", graph.CycleWithChords(rng, 36, 6)),
		fam("barbell", graph.Barbell(8, 7)),
	}
	// The skewed family: deep path-tail sources interleaved with star
	// leaves, the shape that makes the pipelined stages actually
	// overlap heavy builds with light enumerations.
	psm := graph.PathStarMix(xrand.New(31), 60, 18, 12)
	out = append(out, struct {
		name    string
		g       *graph.Graph
		sources []int32
	}{"path-star-mix", psm, []int32{59, 60, 40, 64, 20, 68}})
	return out
}

// solveAt runs the full solve at the given worker count, with path
// tracking on or off.
func solveAt(t *testing.T, g *graph.Graph, sources []int32, par int, track bool) *Solution {
	t.Helper()
	p := testParams(77)
	p.Parallelism = par
	p.TrackPaths = track
	sol, err := Solve(g, sources, p)
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

// TestSchedulesBitIdentical is the solve's determinism sweep. The
// stages always run in one order, but the engine schedules their items
// differently at every worker count (inline at P=1, claimed from one
// atomic counter with build→enumerate overlap at P>1), and tracking
// adds a witness snapshot inside the pipelined enumerate stage. For
// every family, each P ∈ {1, 2, 8} with tracking off and on must
// return results bit-identical to the P=1 untracked solve. CI runs
// this under -race, so it doubles as the data-race proof for the
// pipelined stages, the early path-state release and the tracked
// snapshots.
func TestSchedulesBitIdentical(t *testing.T) {
	for _, f := range pipelineFamilies() {
		t.Run(f.name, func(t *testing.T) {
			baseline := solveAt(t, f.g, f.sources, 1, false)
			for _, par := range []int{1, 2, 8} {
				for _, track := range []bool{false, true} {
					sol := solveAt(t, f.g, f.sources, par, track)
					for i := range sol.Results {
						if d := rp.Diff(baseline.Results[i], sol.Results[i]); d != "" {
							t.Fatalf("P=%d track=%v: source %d differs: %s",
								par, track, f.sources[i], d)
						}
					}
				}
			}
		})
	}
}

// solveBarrier is a test-only reference composition of the solve's
// stages with a barrier after each one: every source is built, then
// every seed shard is enumerated (no path state released in between),
// then the merge, the §8.2.2 fan-out and the assembly run. It shares
// the stage functions with SolveSharedContext but none of its
// build→enumerate pipelining.
func solveBarrier(t *testing.T, g *graph.Graph, sources []int32, par int) []*rp.Result {
	t.Helper()
	p := testParams(77)
	p.Parallelism = par
	sh, err := ssrp.NewShared(g, sources, p)
	if err != nil {
		t.Fatal(err)
	}
	ctr := newCenters(sh, sh.DeriveRNG())
	ct := newHubTable(g.NumVertices(), ctr.List, ctr.Tree, ctr.Anc)
	perSrc := make([]*ssrp.PerSource, len(sources))
	scs := make([]*hubGraph, len(sources))
	sh.Pool.RunScratch(len(sources), func(i int, sc *engine.Scratch) {
		perSrc[i] = sh.NewPerSource(sources[i])
		perSrc[i].BuildSmallNearScratch(sc)
		scs[i] = buildSourceCenter(perSrc[i], ctr, ct, sc)
	})
	seed, _, err := buildSeedTable(context.Background(), sh, perSrc, ctr)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := buildCenterLandmark(context.Background(), sh, ctr, seed)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*rp.Result, len(sources))
	sh.Pool.RunScratch(len(sources), func(i int, sc *engine.Scratch) {
		ps := perSrc[i]
		ps.SetLenSR(assembleLenSR(ps, ctr, scs[i], cl, sc))
		sweepLandmarks(ps, maxSweeps)
		results[i] = ps.Combine(&ssrp.Stats{})
	})
	return results
}

// TestPipelinedSolveMatchesBarrier is the pipeline's bit-identity
// acceptance: for every family, the pipelined solve at Parallelism ∈
// {1, 2, 8} returns results identical to the barrier-ordered reference
// (solveBarrier) at every worker count. Under -race it covers the
// fused build→enumerate stages and the early path-state release
// against a composition that has neither.
func TestPipelinedSolveMatchesBarrier(t *testing.T) {
	for _, f := range pipelineFamilies() {
		t.Run(f.name, func(t *testing.T) {
			baseline := solveBarrier(t, f.g, f.sources, 1)
			for _, par := range []int{1, 2, 8} {
				for _, barrier := range []bool{false, true} {
					var results []*rp.Result
					if barrier {
						results = solveBarrier(t, f.g, f.sources, par)
					} else {
						results = solveAt(t, f.g, f.sources, par, false).Results
					}
					for i := range results {
						if d := rp.Diff(baseline[i], results[i]); d != "" {
							t.Fatalf("P=%d barrier=%v: source %d differs: %s",
								par, barrier, f.sources[i], d)
						}
					}
				}
			}
		})
	}
}

// TestPipelinePeakSeedPathBytes pins the memory contract (E14b) at the
// deterministic P=1 point: the pipelined solve releases each source's
// §7.1 path-expansion state before building the next, so the peak is
// the largest single source's state — not the sum over sources that
// building every source before enumerating any would hold.
func TestPipelinePeakSeedPathBytes(t *testing.T) {
	g := graph.PathStarMix(xrand.New(5), 80, 24, 16)
	sources := []int32{79, 80, 53, 84, 26, 88, 13, 92}

	peak := solveAt(t, g, sources, 1, false).Stats.PeakSeedPathBytes
	if peak <= 0 {
		t.Fatalf("peak path-state bytes not recorded: %d", peak)
	}
	// Reconstruct the deterministic P=1 value independently.
	sh, err := ssrp.NewShared(g, sources, testParams(77))
	if err != nil {
		t.Fatal(err)
	}
	var sum, max int64
	for _, s := range sources {
		ps := sh.NewPerSource(s)
		ps.BuildSmallNear()
		b := ps.Small.PathStateBytes()
		sum += b
		if b > max {
			max = b
		}
	}
	if peak != max {
		t.Errorf("P=1 peak = %d, want max single source %d", peak, max)
	}
	if peak >= sum {
		t.Errorf("P=1 peak %d not below the sum over sources %d", peak, sum)
	}
}

// TestStageLatencyBreakdown: the Stats stage timers are populated
// (every stage of a non-trivial solve takes measurable time).
func TestStageLatencyBreakdown(t *testing.T) {
	g := graph.CycleWithChords(xrand.New(8), 72, 8)
	sources := []int32{0, 24, 48}
	stats := solveAt(t, g, sources, 2, false).Stats
	for _, st := range []struct {
		name string
		d    int64
	}{
		{"per-source build", int64(stats.StagePerSourceBuild)},
		{"seed enumerate", int64(stats.StageSeedEnumerate)},
		{"center landmark", int64(stats.StageCenterLandmark)},
		{"assembly", int64(stats.StageAssembly)},
	} {
		if st.d <= 0 {
			t.Errorf("stage %q recorded no time", st.name)
		}
	}
	// The merge can round to zero on a tiny table, but must never be
	// negative.
	if stats.StageSeedMerge < 0 {
		t.Error("negative merge time")
	}
}

// TestReleasedSmallNearPanicsOnPathExpansion pins the release
// contract: Value keeps answering, PathVertices panics.
func TestReleasedSmallNearPanicsOnPathExpansion(t *testing.T) {
	g := graph.Cycle(12)
	sh, err := ssrp.NewShared(g, []int32{0}, testParams(3))
	if err != nil {
		t.Fatal(err)
	}
	ps := sh.NewPerSource(0)
	ps.BuildSmallNear()
	before := ps.Small.Value(6, 5)
	if freed := ps.Small.ReleasePathState(); freed <= 0 {
		t.Fatalf("ReleasePathState freed %d bytes", freed)
	}
	if got := ps.Small.Value(6, 5); got != before {
		t.Fatalf("Value changed after release: %d -> %d", before, got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("PathVertices after release did not panic")
		}
	}()
	ps.Small.PathVertices(6, 5)
}
