// Package ssrp implements the paper's Single Source Replacement Path
// algorithm (Gupta–Jain–Modi 2020, §6–7; Theorem 14): all replacement
// path lengths from one source in Õ(m√n + n²) time.
//
// # Pipeline
//
//  1. Preliminaries (§5): BFS tree T_s, leveled landmark family
//     L_0 … L_K with L ∋ s, a BFS tree and ancestry index per landmark
//     (internal/sample, internal/bfs, internal/lca).
//  2. d(s, r, e) for every landmark r and edge e on the canonical s→r
//     path, via the classical crossing-edge characterization
//     (internal/classic): the paper runs the single-pair algorithm once
//     per landmark, Õ(m+n) each, Õ(m√n) total; classic.Rows fills
//     every landmark's row in one sequential pass over T_s.
//  3. The §7.1 auxiliary graph + one Dijkstra run: small replacement
//     paths that avoid near edges (exact by Lemma 10's induction, with
//     no dependence on sampling).
//  4. Per-target combination: Algorithm 3 for far edges (scan L_k for
//     a landmark within 2^k·X of t), Algorithm 4 for near edges with
//     large replacement paths (scan L_0), both adding the candidate
//     d(s,r,e) + d(r,t).
//
// Every candidate any stage produces is the length of a concrete
// e-avoiding walk (soundness is unconditional); the sampling lemmas
// (9, 12, 13) make the minimum exact with probability ≥ 1 − 1/n.
package ssrp

import (
	"msrp/internal/graph"
	"msrp/internal/rp"
)

// Solve computes all replacement path lengths from the given source.
// It returns the result, observability counters, and an error only for
// invalid inputs (empty graph, source out of range, bad Params).
func Solve(g *graph.Graph, source int32, p Params) (*rp.Result, *Stats, error) {
	res, _, stats, err := solve(g, source, p, false)
	return res, stats, err
}

// SolvePaths is Solve with provenance tracking: the returned PerSource
// can expand any answer into a concrete replacement path via
// ReconstructPath. Tracking costs one provenance entry per answer.
func SolvePaths(g *graph.Graph, source int32, p Params) (*rp.Result, *PerSource, *Stats, error) {
	return solve(g, source, p, true)
}

func solve(g *graph.Graph, source int32, p Params, trackPaths bool) (*rp.Result, *PerSource, *Stats, error) {
	sh, err := NewShared(g, []int32{source}, p)
	if err != nil {
		return nil, nil, nil, err
	}
	stats := sh.newStats()
	ps := sh.NewPerSource(source)
	ps.TrackPaths = trackPaths || p.TrackPaths
	ps.BuildSmallNear()
	if ps.TrackPaths {
		// Reconstruction runs off the immutable witness snapshot, the
		// same plane the MSRP pipeline retains past ReleasePathState.
		ps.Snap = ps.Small.SnapshotProvenance()
	}
	stats.AuxNodes += int64(ps.Small.NumNodes)
	stats.AuxArcs += int64(ps.Small.NumArcs)
	ps.ComputeLenSRClassic()
	res := ps.Combine(stats)
	return res, ps, stats, nil
}
