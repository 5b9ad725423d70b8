package msrp

// Cross-checking property suite: the full public pipeline (MultiSource
// and the batched Oracle) against the brute-force oracle in
// internal/naive, for EVERY (source, target, avoided-edge) triple on
// small instances of the workload families the paper's analysis
// distinguishes. This is the exhaustive counterpart of the sampled
// spot checks in msrp_api_test.go.

import (
	"fmt"
	"testing"

	"msrp/internal/graph"
	msrpcore "msrp/internal/msrp"
	"msrp/internal/naive"
	"msrp/internal/rp"
	"msrp/internal/ssrp"
	"msrp/internal/xrand"
)

// crossCheckFamilies returns the seeded small-n instances. Boosted
// options at these sizes make the randomized solvers exact, so the
// comparison against brute force demands equality, not just soundness.
func crossCheckFamilies() []struct {
	name string
	g    *graph.Graph
} {
	rng := xrand.New(20200616)
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"erdos-renyi-sparse", graph.RandomConnected(rng, 26, 40)},
		{"erdos-renyi-dense", graph.RandomConnected(rng, 18, 90)},
		{"grid-4x6", graph.Grid(4, 6)},
		{"path-with-chords", graph.PathWithChords(rng, 24, 6)},
		{"cycle-with-chords", graph.CycleWithChords(rng, 22, 4)},
		{"barbell", graph.Barbell(6, 5)},
	}
}

func crossCheckSources(n int) []int {
	uniq := make(map[int]bool)
	var sources []int
	for _, s := range []int{0, n / 3, 2 * n / 3} {
		if !uniq[s] {
			uniq[s] = true
			sources = append(sources, s)
		}
	}
	return sources
}

// TestCrossCheckMultiSource compares every MultiSource answer — every
// (source, target, path-edge) triple — with the delete-and-BFS brute
// force.
func TestCrossCheckMultiSource(t *testing.T) {
	for _, f := range crossCheckFamilies() {
		t.Run(f.name, func(t *testing.T) {
			g := WrapGraph(f.g)
			sources := crossCheckSources(f.g.NumVertices())
			results, err := MultiSource(g, sources, testOptions(99))
			if err != nil {
				t.Fatal(err)
			}
			for i, s := range sources {
				want := naive.SSRP(f.g, int32(s))
				if d := rp.Diff(want, resultOf(results[i])); d != "" {
					t.Fatalf("source %d: %s", s, d)
				}
			}
		})
	}
}

// TestCrossCheckMultiSourcePaths is the provenance plane's exhaustive
// acceptance: for every graph family, at P ∈ {1, 2, 8}, a TrackPaths
// solve must
//
//  1. report lengths bit-identical to the tracking-off solve (tracking
//     only observes, never steers), which the families' boosted
//     constants in turn pin to the brute-force optimum, and
//  2. expand EVERY finite answer into a machine-verified replacement
//     path: a real walk in G−e from s to t, avoiding e, of exactly the
//     reported (= naive-exact) length — and no path for NoPath answers.
func TestCrossCheckMultiSourcePaths(t *testing.T) {
	for _, f := range crossCheckFamilies() {
		t.Run(f.name, func(t *testing.T) {
			n := f.g.NumVertices()
			var sources []int32
			for _, s := range crossCheckSources(n) {
				sources = append(sources, int32(s))
			}
			wants := make([]*rp.Result, len(sources))
			for i, s := range sources {
				wants[i] = naive.SSRP(f.g, s)
			}
			for _, par := range []int{1, 2, 8} {
				p := ssrp.DefaultParams()
				p.Seed = 99
				p.SampleBoost = 12
				p.SuffixScale = 0.25
				p.Parallelism = par
				plain, err := msrpcore.Solve(f.g, sources, p)
				if err != nil {
					t.Fatal(err)
				}
				p.TrackPaths = true
				sol, err := msrpcore.Solve(f.g, sources, p)
				if err != nil {
					t.Fatal(err)
				}
				for i, s := range sources {
					res := sol.Results[i]
					if d := rp.Diff(plain.Results[i], res); d != "" {
						t.Fatalf("P=%d source %d: tracking changed lengths: %s", par, s, d)
					}
					if d := rp.Diff(wants[i], res); d != "" {
						t.Fatalf("P=%d source %d: %s", par, s, d)
					}
					verifyResultPaths(t, f.g, sol.PerSource[i], res, par)
				}
			}
		})
	}
}

// verifyResultPaths reconstructs every answer of one source and
// machine-verifies it against the reported length.
func verifyResultPaths(t *testing.T, g *graph.Graph, ps *ssrp.PerSource, res *rp.Result, par int) {
	t.Helper()
	verified, failures := rp.VerifyReconstructions(g, res, 1, ps.ReconstructPath)
	for _, f := range failures {
		t.Errorf("P=%d %s", par, f)
	}
	if len(failures) > 0 {
		t.FailNow()
	}
	if verified == 0 && res.NumQueries() > 0 {
		t.Fatalf("P=%d s=%d: nothing verified", par, res.Source)
	}
}

// TestCrossCheckOracleBatch builds the query list of every (source,
// target, avoided-edge) triple, answers it in one QueryBatch, and
// compares each answer with a from-scratch BFS that skips the edge.
func TestCrossCheckOracleBatch(t *testing.T) {
	for _, f := range crossCheckFamilies() {
		t.Run(f.name, func(t *testing.T) {
			g := WrapGraph(f.g)
			n := f.g.NumVertices()
			sources := crossCheckSources(n)
			oracle, err := NewOracle(g, sources, testOptions(100))
			if err != nil {
				t.Fatal(err)
			}

			var queries []Query
			for _, s := range sources {
				res := oracle.Result(s)
				if res == nil {
					t.Fatalf("no result for source %d", s)
				}
				for target := 0; target < n; target++ {
					path := res.PathTo(target)
					for i := 0; i+1 < len(path); i++ {
						queries = append(queries, Query{
							Source: s, Target: target,
							U: int(path[i]), V: int(path[i+1]),
						})
					}
				}
			}

			answers := oracle.QueryBatch(queries)
			if len(answers) != len(queries) {
				t.Fatalf("%d answers for %d queries", len(answers), len(queries))
			}
			for i, q := range queries {
				if answers[i].Err != nil {
					t.Fatalf("query %+v: %v", q, answers[i].Err)
				}
				e, ok := f.g.EdgeID(q.U, q.V)
				if !ok {
					t.Fatalf("query %+v references a missing edge", q)
				}
				want := naive.OnePair(f.g, int32(q.Source), int32(q.Target), e)
				got := answers[i].Length
				if got == NoPath {
					got = rp.Inf
				}
				if got != want {
					t.Fatalf("d(%d,%d,{%d,%d}) = %s, brute force %s",
						q.Source, q.Target, q.U, q.V, fmtTestLen(got), fmtTestLen(want))
				}
			}
		})
	}
}

// TestCrossCheckOracleLazyVsWarm: for every triple, a lazily built
// oracle and a Warm()-built oracle must agree at boosted constants
// (both construction paths are exact there).
func TestCrossCheckOracleLazyVsWarm(t *testing.T) {
	for _, f := range crossCheckFamilies() {
		t.Run(f.name, func(t *testing.T) {
			g := WrapGraph(f.g)
			n := f.g.NumVertices()
			sources := crossCheckSources(n)
			lazy, err := NewOracle(g, sources, testOptions(101))
			if err != nil {
				t.Fatal(err)
			}
			warm, err := NewOracle(g, sources, testOptions(101))
			if err != nil {
				t.Fatal(err)
			}
			if err := warm.Warm(); err != nil {
				t.Fatal(err)
			}
			if got, want := warm.CachedSources(), len(sources); got != want {
				t.Fatalf("Warm cached %d sources, want %d", got, want)
			}
			for _, s := range sources {
				lr, wr := lazy.Result(s), warm.Result(s)
				if d := rp.Diff(resultOf(lr), resultOf(wr)); d != "" {
					t.Fatalf("source %d: lazy vs warm: %s", s, d)
				}
			}
		})
	}
}

// resultOf unwraps the internal result for rp.Diff comparisons.
func resultOf(r *Result) *rp.Result { return r.res }

func fmtTestLen(v int32) string {
	if v == rp.Inf {
		return "inf"
	}
	return fmt.Sprintf("%d", v)
}
