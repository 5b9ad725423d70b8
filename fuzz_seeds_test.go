package msrp

// Cross-cutting randomized coverage, two tiers:
//
//   - TestFuzzSeedSweep: the whole public pipeline (multi-source,
//     varying σ) against the brute-force oracle
//     over many independently seeded instances — the in-repo version
//     of cmd/msrp-verify, kept small enough for CI.
//   - FuzzOracleQuery: a native `go test -fuzz` target that decodes
//     arbitrary bytes into a graph plus a query tuple and asserts the
//     Oracle's soundness invariants against the brute force. CI runs a
//     short -fuzz smoke on every push; run it longer locally with
//     `go test -fuzz=FuzzOracleQuery -fuzztime=5m .`
//
// Soundness — unlike w.h.p. exactness — must hold on every input, so
// the fuzz target is the right tool for hunting the corner cases the
// seeded sweeps would only hit by luck.

import (
	"testing"

	"msrp/internal/graph"
	msrpcore "msrp/internal/msrp"
	"msrp/internal/naive"
	"msrp/internal/rp"
	"msrp/internal/ssrp"
	"msrp/internal/xrand"
)

func TestFuzzSeedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep runs dozens of full solves")
	}
	const trials = 24
	rng := xrand.New(20200519)
	for trial := 0; trial < trials; trial++ {
		n := 24 + rng.Intn(56)
		m := n + rng.Intn(3*n)
		g := graph.RandomConnected(rng, n, m)
		sigma := 1 + rng.Intn(3)
		seen := map[int32]bool{}
		var sources []int32
		for len(sources) < sigma {
			s := int32(rng.Intn(n))
			if !seen[s] {
				seen[s] = true
				sources = append(sources, s)
			}
		}
		p := ssrp.DefaultParams()
		p.Seed = rng.Uint64()
		p.SampleBoost = 12
		p.SuffixScale = 0.25
		sol, err := msrpcore.Solve(g, sources, p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i, s := range sources {
			want := naive.SSRP(g, s)
			if d := rp.Diff(want, sol.Results[i]); d != "" {
				t.Fatalf("trial %d (n=%d m=%d σ=%d) source %d: %s",
					trial, n, m, sigma, s, d)
			}
		}
	}
}

// graphFromFuzzBytes deterministically decodes fuzz bytes into a small
// simple graph: the first byte picks n ∈ [4, 16], each following byte
// pair proposes an edge (self-loops and duplicates skipped). Returns
// nil when no edge survives.
func graphFromFuzzBytes(data []byte) *graph.Graph {
	if len(data) < 3 {
		return nil
	}
	n := 4 + int(data[0]%13)
	b := graph.NewBuilder(n)
	seen := make(map[[2]int]bool)
	edges := 0
	for i := 1; i+1 < len(data) && edges < 4*n; i += 2 {
		u, v := int(data[i])%n, int(data[i+1])%n
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		if err := b.AddEdge(u, v); err != nil {
			return nil
		}
		edges++
	}
	if edges == 0 {
		return nil
	}
	g, err := b.Build()
	if err != nil {
		return nil
	}
	return g
}

// FuzzOracleQuery fuzzes graph bytes plus a (source, target, edge,
// seed) tuple through the batched Oracle and asserts the soundness
// invariants that must hold on EVERY input, independent of the w.h.p.
// analysis:
//
//   - a reported length is at least the original distance (removing an
//     edge cannot shorten a shortest path);
//   - a reported length is achievable, i.e. at least the brute-force
//     optimum for the same (s, t, e);
//   - NoPath is reported iff the brute force also finds no path.
//
// Every query also requests the concrete path (the oracle runs with
// TrackPaths) and asserts the path/length invariant: the answer's path
// is a real walk in G−e from s to t with exactly Length edges — the
// reconstruction is a certificate, never a guess — and NoPath answers
// carry no path.
func FuzzOracleQuery(f *testing.F) {
	f.Add([]byte{5, 0, 1, 1, 2, 2, 3, 3, 4, 4, 0}, uint8(0), uint8(2), uint8(0), uint64(1))
	f.Add([]byte{0, 0, 1, 1, 2, 2, 3}, uint8(0), uint8(3), uint8(1), uint64(7)) // path: bridges
	f.Add([]byte{12, 0, 1, 0, 2, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 2, 6}, uint8(1), uint8(6), uint8(2), uint64(3))
	f.Fuzz(func(t *testing.T, data []byte, sByte, tgtByte, eiByte uint8, seed uint64) {
		ig := graphFromFuzzBytes(data)
		if ig == nil {
			t.Skip()
		}
		n := ig.NumVertices()
		s := int(sByte) % n

		opts := testOptions(seed)
		opts.TrackPaths = true
		oracle, err := NewOracle(WrapGraph(ig), []int{s}, opts)
		if err != nil {
			t.Fatalf("oracle construction failed on a valid graph: %v", err)
		}
		res := oracle.Result(s)
		if res == nil {
			t.Fatal("Result(source) returned nil")
		}
		target := int(tgtByte) % n
		path := res.PathTo(target)
		if len(path) < 2 {
			t.Skip() // target unreachable or equal to source
		}
		i := int(eiByte) % (len(path) - 1)
		u, v := int(path[i]), int(path[i+1])

		answers := oracle.QueryBatch([]Query{{Source: s, Target: target, U: u, V: v, Paths: true}})
		if answers[0].Err != nil {
			t.Fatalf("on-path query rejected: %v", answers[0].Err)
		}
		got := answers[0].Length

		e, ok := ig.EdgeID(int(path[i]), int(path[i+1]))
		if !ok {
			t.Fatalf("canonical path edge {%d,%d} missing from graph", u, v)
		}
		want := naive.OnePair(ig, int32(s), int32(target), e)

		if got == NoPath {
			if answers[0].Path != nil {
				t.Fatalf("d(%d,%d,{%d,%d}): NoPath answer carries a path", s, target, u, v)
			}
			if want != rp.Inf {
				t.Fatalf("d(%d,%d,{%d,%d}): reported NoPath, brute force found %d",
					s, target, u, v, want)
			}
			return
		}
		if err := rp.CheckReplacementPath(ig, answers[0].Path, int32(s), int32(target), e, got); err != nil {
			t.Fatalf("d(%d,%d,{%d,%d}): path/length invariant violated: %v", s, target, u, v, err)
		}
		if want == rp.Inf {
			t.Fatalf("d(%d,%d,{%d,%d}): reported %d, but no replacement path exists",
				s, target, u, v, got)
		}
		if int(got) < res.Dist(target) {
			t.Fatalf("d(%d,%d,{%d,%d}): reported %d below original distance %d",
				s, target, u, v, got, res.Dist(target))
		}
		if got < want {
			t.Fatalf("d(%d,%d,{%d,%d}): reported %d below brute-force optimum %d (unachievable)",
				s, target, u, v, got, want)
		}
	})
}
