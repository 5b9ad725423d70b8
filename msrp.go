// Package msrp is a Go implementation of the replacement-path
// algorithms from "Multiple Source Replacement Path Problem"
// (Gupta, Jain, Modi — PODC 2020 / arXiv:2005.09262).
//
// Given an undirected unweighted graph G, a source s and a target t,
// the replacement path for an edge e on the shortest s→t path is the
// shortest s→t path that avoids e. This package computes the lengths
// of all replacement paths:
//
//   - SingleSource: from one source to every target, avoiding every
//     edge of each shortest path — Õ(m√n + n²) (the paper's Theorem 14).
//   - MultiSource: from σ sources — Õ(m√(nσ) + σn²) (Theorem 1).
//
// Both are randomized: results are always *sound* (every reported
// length is achievable by a real path avoiding the edge, and NoPath is
// reported only when provably no candidate was found), and they are
// exact with probability ≥ 1 − 1/n. The Options let callers trade
// constants for certainty; Options.ExhaustiveNear is a deterministic
// (slower) mode.
//
// # Quick start
//
//	g := msrp.GenerateCycle(5) // pentagon 0-1-2-3-4-0
//	res, _ := msrp.SingleSource(g, 0, msrp.DefaultOptions())
//	// res.Lengths(2) == [3, 3]: avoiding either edge of the canonical
//	// 0→2 path (0-1-2) forces the detour 0-4-3-2.
package msrp

import (
	"errors"
	"fmt"

	"msrp/internal/graph"
	"msrp/internal/lca"
	msrpcore "msrp/internal/msrp"
	"msrp/internal/rp"
	"msrp/internal/ssrp"
)

// NoPath is returned for queries where no replacement path exists (the
// avoided edge is a bridge between source and target).
const NoPath = int32(rp.Inf)

// Graph is an immutable simple undirected unweighted graph.
type Graph struct {
	g *graph.Graph
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return g.g.NumVertices() }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return g.g.NumEdges() }

// HasEdge reports whether the undirected edge {u, v} exists.
func (g *Graph) HasEdge(u, v int) bool { return g.g.HasEdge(u, v) }

// EdgeEndpoints returns the endpoints of edge id e (u < v).
func (g *Graph) EdgeEndpoints(e int) (u, v int) {
	a, b := g.g.EdgeEndpoints(e)
	return int(a), int(b)
}

// Internal unwraps the graph for intra-module callers (cmd/, examples
// needing generators); it is not part of the stable API.
func (g *Graph) Internal() *graph.Graph { return g.g }

// WrapGraph adopts an internally built graph; used by the generator
// helpers and the CLI tools.
func WrapGraph(ig *graph.Graph) *Graph { return &Graph{g: ig} }

// GraphBuilder accumulates edges for an immutable Graph.
type GraphBuilder struct {
	b *graph.Builder
}

// NewGraphBuilder returns a builder for a graph on n vertices.
func NewGraphBuilder(n int) *GraphBuilder {
	return &GraphBuilder{b: graph.NewBuilder(n)}
}

// AddEdge records the undirected edge {u, v}. Self-loops and
// out-of-range endpoints are rejected immediately; duplicate edges are
// rejected at Build time.
func (b *GraphBuilder) AddEdge(u, v int) error { return b.b.AddEdge(u, v) }

// Build finalizes the graph.
func (b *GraphBuilder) Build() (*Graph, error) {
	g, err := b.b.Build()
	if err != nil {
		return nil, err
	}
	return &Graph{g: g}, nil
}

// Options controls the randomized machinery. Zero value is invalid;
// start from DefaultOptions.
type Options struct {
	// Seed drives all sampling; fixed seed ⇒ reproducible output.
	Seed uint64

	// SampleBoost multiplies the landmark/center sampling
	// probabilities (paper constant: 1). Raise it on small graphs to
	// push the failure probability of the w.h.p. guarantees toward
	// zero at a proportional cost in time.
	SampleBoost float64

	// SuffixScale multiplies the near/far distance unit
	// X = √(n/σ)·log₂n. Keep SampleBoost·SuffixScale ≥ 1.
	SuffixScale float64

	// Parallelism bounds the execution engine's worker goroutines
	// across every parallel stage: landmark/center BFS forests, the
	// per-source and per-center MSRP pipeline stages, and the Oracle's
	// batched builds (one source per worker; a single build is
	// sequential). 1 means sequential; values <= 0 select GOMAXPROCS.
	// Output is identical for every value.
	Parallelism int

	// MaxCachedSources bounds how many materialized per-source results
	// an Oracle retains at once (least-recently-used eviction), so σ can
	// exceed what fits in memory all at once. 0 means unlimited. Evicted
	// sources are rebuilt on demand with identical answers.
	MaxCachedSources int

	// ExhaustiveNear switches to the deterministic-exact (but slower)
	// mode that routes every query through the §7.1 auxiliary graph.
	ExhaustiveNear bool

	// FlatLandmarks disables the paper's landmark scaling trick
	// (ablation switch; output unchanged, far-edge stage slower).
	FlatLandmarks bool

	// TrackPaths records provenance during the solve so
	// Result.ReplacementPath can expand answers into concrete vertex
	// sequences. Supported by SingleSource, MultiSource, and the Oracle
	// (both its lazy builds and Warm). Lengths are bit-identical with
	// tracking on or off; the cost is the retained provenance plane,
	// reported by OracleStats.ProvenanceBytes on the serving path.
	TrackPaths bool

	// MaxProvenanceBytes bounds the total provenance the Oracle retains
	// across cached sources (the ProvenanceBytes gauge), in bytes; 0
	// means unlimited. When the budget is exceeded the least recently
	// path-queried sources drop their provenance but keep their cached
	// lengths; a later path query against such a source triggers an
	// on-demand tracked rebuild through the Oracle's single-flight path
	// (counted by OracleStats.ProvenanceEvictions / ProvenanceRebuilds).
	// Only meaningful with TrackPaths; ignored by the one-shot solvers.
	MaxProvenanceBytes int64

	// MaxProvenanceRebuilds bounds how many on-demand tracked rebuilds
	// (path queries against budget-stripped sources) the Oracle runs
	// concurrently. A path-query storm against stripped sources is a
	// thundering herd of full solves that the serving tier's in-flight
	// budget does not model — each rebuild costs a whole per-source
	// build, not a cache lookup. Over-limit rebuild attempts fail fast
	// with ErrRebuildSaturated (never queue), which serving front-ends
	// map to 429 + a derived Retry-After. 0 derives a small default from
	// the build parallelism (max(1, Parallelism/2), with Parallelism ≤ 0
	// resolved to GOMAXPROCS); negative means unbounded. Only meaningful
	// with TrackPaths and a finite MaxProvenanceBytes — without strips
	// there is nothing to rebuild.
	MaxProvenanceRebuilds int
}

// DefaultOptions returns the paper-faithful configuration.
func DefaultOptions() Options {
	p := ssrp.DefaultParams()
	return Options{
		Seed:        p.Seed,
		SampleBoost: p.SampleBoost,
		SuffixScale: p.SuffixScale,
		Parallelism: p.Parallelism,
	}
}

func (o Options) params() ssrp.Params {
	return ssrp.Params{
		Seed:           o.Seed,
		SampleBoost:    o.SampleBoost,
		SuffixScale:    o.SuffixScale,
		Parallelism:    o.Parallelism,
		ExhaustiveNear: o.ExhaustiveNear,
		FlatLandmarks:  o.FlatLandmarks,
		TrackPaths:     o.TrackPaths,
	}
}

// Result holds all replacement path lengths from one source.
type Result struct {
	res *rp.Result
	g   *graph.Graph
	anc *lca.Ancestry
	ps  *ssrp.PerSource // non-nil only with Options.TrackPaths
}

// Source returns the source vertex.
func (r *Result) Source() int { return int(r.res.Source) }

// Dist returns the shortest-path distance from the source to t, or -1
// if unreachable.
func (r *Result) Dist(t int) int { return int(r.res.Tree.Dist[t]) }

// PathTo returns the canonical shortest path from the source to t as a
// vertex sequence (source first), or nil if t is unreachable. The
// replacement lengths returned by Lengths are indexed by this path's
// edges.
func (r *Result) PathTo(t int) []int32 { return r.res.Tree.PathTo(int32(t)) }

// Lengths returns the replacement path lengths for target t: entry i is
// the length of the shortest source→t path avoiding the i-th edge of
// the canonical path (NoPath if none exists). The returned slice aliases
// the result; callers must not modify it.
func (r *Result) Lengths(t int) []int32 { return r.res.Len[t] }

// AvoidEdge answers a single query: the length of the shortest
// source→t path avoiding the edge {u, v}. It returns an error when the
// edge does not exist or is not on the canonical source→t path, and
// NoPath when no replacement path exists.
func (r *Result) AvoidEdge(t, u, v int) (int32, error) {
	i, err := r.pathEdgeIndex(t, u, v)
	if err != nil {
		return 0, err
	}
	return r.res.Len[t][i], nil
}

// NumAnswers returns the total number of (target, edge) pairs answered.
func (r *Result) NumAnswers() int { return r.res.NumQueries() }

// ErrPathsNotTracked is the sentinel returned when a path expansion is
// requested from a result (or oracle) that was built without
// Options.TrackPaths. SingleSource, MultiSource, and the Oracle all
// support tracking; set the option before solving. Serving front-ends
// should test with errors.Is and map it to a client error (the request
// asked for something this deployment was configured not to record).
var ErrPathsNotTracked = errors.New(
	"msrp: replacement paths were not tracked; set Options.TrackPaths before solving (supported by SingleSource, MultiSource, and the Oracle)")

// ReplacementPath expands the answer for target t and path-edge index i
// into its vertex sequence (source first, t last). It returns nil when
// no replacement path exists, and ErrPathsNotTracked unless the result
// was computed with Options.TrackPaths.
//
// Every returned path is validated first — a real walk in the graph
// from source to t, avoiding the i-th canonical edge, of exactly the
// reported length — so a non-nil path is a machine-checked certificate
// of its answer, never a guess; a reconstruction that fails validation
// surfaces as an error instead.
func (r *Result) ReplacementPath(t, i int) ([]int32, error) {
	if r.ps == nil {
		return nil, ErrPathsNotTracked
	}
	path, err := r.ps.ReconstructPath(int32(t), i)
	if err != nil || path == nil {
		return nil, err
	}
	e := r.ps.EdgeAt(int32(t), i)
	if err := rp.CheckReplacementPath(r.g, path, r.res.Source, int32(t), e, r.res.Len[t][i]); err != nil {
		return nil, fmt.Errorf("msrp: reconstruction for t=%d i=%d failed validation (bug): %w", t, i, err)
	}
	return path, nil
}

// ReplacementPathForEdge is ReplacementPath addressed the way queries
// arrive on the wire: by the avoided edge {u, v} on the canonical path
// to t rather than by path-edge index.
func (r *Result) ReplacementPathForEdge(t, u, v int) ([]int32, error) {
	i, err := r.pathEdgeIndex(t, u, v)
	if err != nil {
		return nil, err
	}
	return r.ReplacementPath(t, i)
}

// ProvenanceBytes returns the retained footprint of this result's
// per-source provenance state (0 when paths were not tracked). The
// Oracle aggregates it across cached entries into
// OracleStats.ProvenanceBytes.
func (r *Result) ProvenanceBytes() int64 {
	if r.ps == nil {
		return 0
	}
	return r.ps.ProvenanceBytes()
}

// pathEdgeIndex resolves the avoided edge {u, v} to its index on the
// canonical path to t — the shared addressing step of AvoidEdge and
// ReplacementPathForEdge. The target is bounds-checked here: these
// entry points are wired to the network (the /v1/query body), so an
// out-of-range target must be a per-query error, not an index panic.
func (r *Result) pathEdgeIndex(t, u, v int) (int, error) {
	if t < 0 || t >= r.g.NumVertices() {
		return 0, fmt.Errorf("msrp: target %d out of range [0,%d)", t, r.g.NumVertices())
	}
	e, ok := r.g.EdgeID(u, v)
	if !ok {
		return 0, fmt.Errorf("msrp: no edge {%d,%d}", u, v)
	}
	if !r.anc.EdgeOnRootPath(r.g, e, int32(t)) {
		return 0, fmt.Errorf("msrp: edge {%d,%d} is not on the canonical %d→%d path",
			u, v, r.res.Source, t)
	}
	child, _ := r.res.Tree.ChildEndpoint(r.g, e)
	return int(r.res.Tree.Dist[child]) - 1, nil
}

func wrapResult(g *graph.Graph, res *rp.Result) *Result {
	return &Result{res: res, g: g, anc: lca.NewAncestry(g, res.Tree)}
}

// ErrNilGraph is returned when a nil graph is passed in.
var ErrNilGraph = errors.New("msrp: nil graph")

// SingleSource computes all replacement path lengths from one source
// (the paper's SSRP algorithm, Theorem 14).
func SingleSource(g *Graph, source int, opts Options) (*Result, error) {
	if g == nil {
		return nil, ErrNilGraph
	}
	if opts.TrackPaths {
		res, ps, _, err := ssrp.SolvePaths(g.g, int32(source), opts.params())
		if err != nil {
			return nil, err
		}
		out := wrapResult(g.g, res)
		out.ps = ps
		return out, nil
	}
	res, _, err := ssrp.Solve(g.g, int32(source), opts.params())
	if err != nil {
		return nil, err
	}
	return wrapResult(g.g, res), nil
}

// MultiSource computes all replacement path lengths from every source
// (the paper's MSRP algorithm, Theorem 1). Results are in source order.
// With Options.TrackPaths each Result supports ReplacementPath exactly
// as a SingleSource result does, expanded through the §8 provenance
// plane.
func MultiSource(g *Graph, sources []int, opts Options) ([]*Result, error) {
	if g == nil {
		return nil, ErrNilGraph
	}
	srcs := make([]int32, len(sources))
	for i, s := range sources {
		srcs[i] = int32(s)
	}
	sol, err := msrpcore.Solve(g.g, srcs, opts.params())
	if err != nil {
		return nil, err
	}
	out := make([]*Result, len(sol.Results))
	for i, res := range sol.Results {
		out[i] = wrapResult(g.g, res)
		if opts.TrackPaths {
			out[i].ps = sol.PerSource[i]
		}
	}
	return out, nil
}

// The Oracle — the concurrency-safe, batch-oriented serving layer over
// these solvers — lives in oracle.go.
