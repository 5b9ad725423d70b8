// Package msrp implements the paper's Multiple Source Replacement Path
// algorithm (Gupta–Jain–Modi 2020, §8; Theorem 1/26): all replacement
// path lengths from σ sources in Õ(m√(nσ) + σn²) time.
//
// # Pipeline
//
// The single-source pipeline (internal/ssrp) needs d(s, r, e) for every
// landmark r, which it obtains by running the classical single-pair
// algorithm per landmark — unaffordable for σ sources. §8 replaces that
// step with the Bernstein–Karger-style center machinery:
//
//  1. Sample a center family C_0 … C_K (same distribution as landmarks,
//     sources forced into C_0); build BFS trees and ancestries
//     (centers.go).
//  2. §8.1 — per source s, one hub-graph Dijkstra (G_s) yields
//     d(s, c, e) for every center c and the edges within c's budget of
//     c on the s→c path (hubgraph.go, buildSourceCenter).
//  3. §8.2.1 — enumerate the small replacement paths found by the §7.1
//     Dijkstras of all sources, recording the c→r suffix length of
//     every center c they pass (centerlandmark.go, the cuckoo table).
//  4. §8.2.2 — per center c, one hub-graph Dijkstra (G_c) yields
//     d(c, r, e) for every landmark r and the edges within c's budget
//     (hubgraph.go's solver, fanned out in centerlandmark.go).
//  5. Assembly — per (s, r, e): MTC via the interval decomposition
//     (Lemma 16), the §7.1 small value, and a sound interval-avoidance
//     candidate; then fixpoint sweeps of the far/near machinery over
//     landmark targets (assemble.go).
//  6. The ssrp per-target combine finishes exactly as in the
//     single-source case, reading the §8-built LenSR.
//
// Soundness is unconditional (every candidate dominates a concrete
// e-avoiding walk); exactness holds w.h.p. via Lemmas 18-25.
package msrp

import (
	"context"
	"sync/atomic"
	"time"

	"msrp/internal/cuckoo"
	"msrp/internal/engine"
	"msrp/internal/graph"
	"msrp/internal/rp"
	"msrp/internal/ssrp"
)

// Params re-exports the shared parameter type.
type Params = ssrp.Params

// DefaultParams returns the paper-faithful parameters.
func DefaultParams() Params { return ssrp.DefaultParams() }

// maxSweeps bounds the landmark fixpoint iteration; two sweeps resolve
// every dependency chain seen in practice and the loop exits early on
// convergence anyway.
const maxSweeps = 3

// Stats extends the ssrp counters with the §8-specific sizes.
type Stats struct {
	ssrp.Stats

	// Center family.
	CenterLevelSizes []int
	CenterCount      int

	// §8.1 auxiliary graphs (summed over sources).
	SCNodes int64
	SCArcs  int64

	// §8.2 auxiliary graphs (summed over centers) and seed table size.
	CLNodes   int64
	CLArcs    int64
	SeedCount int
	// SeedRehashes counts cuckoo rebuilds across the sharded §8.2.1
	// build (shards + merge). Presizing keeps it at zero; a nonzero
	// value in E9/E13 means a rehash cascade came back.
	SeedRehashes int

	// Fixpoint sweep behaviour.
	Sweeps        int
	SweepImproved int64

	// Stage-latency breakdown (the ROADMAP's "load shedding informed by
	// measured build latency"). Every stage records wall time summed
	// over its items — per-source builds, per-source seed enumerations,
	// per-center §8.2.2 builds, per-source assembly — so each figure is
	// the stage's busy time across workers, comparable at any
	// Parallelism even though builds and enumerations overlap.
	// StageSeedMerge is the exception: the merge is one sequential
	// source-order fold of the per-source shards, timed once.
	StagePerSourceBuild time.Duration
	StageSeedEnumerate  time.Duration
	StageSeedMerge      time.Duration
	StageCenterLandmark time.Duration
	StageAssembly       time.Duration

	// PeakSeedPathBytes is the high-water mark of live §7.1
	// path-expansion state (Dijkstra parent chains + [t,e] target maps)
	// across the solve. Each source's state is released as soon as its
	// seed shard is enumerated, so the solve peaks at Θ(P·aux) — the
	// sources in flight — where building every source before
	// enumerating any would peak at Θ(σ·aux) (EXPERIMENTS.md E14b). At
	// P = 1 it is exactly the largest single source's state; at P > 1
	// the value depends on how the workers interleave (it measures real
	// concurrent liveness), the Θ bound does not. Path tracking does
	// not change it: the provenance snapshot is a separate, deliberately
	// retained plane accounted below.
	PeakSeedPathBytes int64

	// ProvenanceBytes is the retained footprint of the provenance plane
	// when Params.TrackPaths is set (per-source witness snapshots and
	// answer provenance, the §8.1/§8.2.2 parent chains, and the seed
	// table); 0 otherwise.
	ProvenanceBytes int64
}

// Solution is the output of one multi-source solve: the per-source
// replacement-length results, the per-source solver state that expands
// them (canonical trees, and — under Params.TrackPaths — the witness
// snapshots and answer provenance, with the shared Provenance plane
// installed as each source's landmark-path expander), and the solve
// counters. PRs 1–4 returned bare result slices and grew side channels
// ad hoc; the provenance plane made the answer a first-class composite.
type Solution struct {
	// Results holds the replacement-length tables, in source order.
	Results []*rp.Result
	// PerSource holds the matching solver state, in source order.
	// PerSource[i].ReconstructPath expands Results[i]'s answers when
	// Params.TrackPaths was set.
	PerSource []*ssrp.PerSource
	// Prov is the shared §8 provenance plane (nil unless tracking, and
	// nil again after CompactProvenance replaces it).
	Prov *Provenance
	// Compact holds the per-source compacted provenance records, in
	// source order (nil until CompactProvenance runs).
	Compact []*CompactProv
	// Stats holds the observability counters.
	Stats *Stats
}

// Solve computes all replacement path lengths from every source.
// Results are returned in source order.
func Solve(g *graph.Graph, sources []int32, p Params) (*Solution, error) {
	if err := checkPackable(g.NumVertices(), g.NumEdges()); err != nil {
		return nil, err
	}
	sh, err := ssrp.NewShared(g, sources, p)
	if err != nil {
		return nil, err
	}
	return SolveShared(sh)
}

// SolveShared is Solve on already-built shared preprocessing, so
// callers that keep a long-lived ssrp.Shared (the public Oracle) do
// not pay the Õ(m√(nσ)) landmark stage twice. Deterministic in the
// Shared alone: repeated calls return bit-identical results.
func SolveShared(sh *ssrp.Shared) (*Solution, error) {
	return SolveSharedContext(context.Background(), sh)
}

// SolveSharedContext is SolveShared with cancellation: the per-source
// stages observe ctx between items (via the engine's context-aware
// scheduler) and the pipeline checks ctx between stages, so a cancelled
// solve returns promptly — bounded by the stage items already in
// flight, not by the full σ-source run. A cancelled solve mutates no
// state reachable from sh (the center-family RNG derivation is
// idempotent), so retrying on the same Shared stays bit-identical.
//
// The stages run in the paper's order: per-source builds pipelined
// with their §8.2.1 seed-shard enumerations, then one source-order
// merge of the shards into the seed table, then the §8.2.2 per-center
// fan-out, then the per-source assembly.
//
// With Params.TrackPaths the solve additionally retains the provenance
// plane — each source's §7.1 witness snapshot is taken between its
// seed-shard enumeration and ReleasePathState (so the Θ(P·aux) peak of
// live path state is untouched), the §8.1/§8.2.2 parent chains and the
// merged seed table are kept, and every PerSource gets the plane
// installed as its landmark-path expander. Tracking is purely
// observational: lengths are bit-identical with it on or off, at any
// worker count.
func SolveSharedContext(ctx context.Context, sh *ssrp.Shared) (*Solution, error) {
	g, sources, p := sh.G, sh.Sources, sh.Params
	if err := checkPackable(g.NumVertices(), g.NumEdges()); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	stats := &Stats{Stats: *sh.NewStats()}

	// Centers (§8 preliminaries).
	ctr := newCenters(sh, sh.DeriveRNG())
	stats.CenterCount = len(ctr.List)
	for k := 0; k <= ctr.Levels.MaxK; k++ {
		stats.CenterLevelSizes = append(stats.CenterLevelSizes, ctr.Levels.Size(k))
	}
	// The centers' hub table serves every source's G_s; it is a local,
	// dropped when the solve returns.
	ct := newHubTable(g.NumVertices(), ctr.List, ctr.Tree, ctr.Anc)

	// Per-source builds (trees, §7.1 graphs, §8.1 graphs) and §8.2.1
	// seed-shard enumeration. A source's shard depends only on that
	// source's build, so the two stages run as one dependency-aware
	// pipeline over the engine pool: a worker finishing source i's
	// build immediately enumerates source i's shard while other sources
	// are still building (or not yet claimed). Each worker's scratch
	// carries the arc-builder arrays from item to item (and, via the
	// pool free list, into the later stages).
	//
	// Memory: a source's §7.1 path-expansion state (the only input of
	// its shard enumeration not needed afterwards) is released at the
	// end of its stage B, so at most P sources' worth is live at once.
	// liveSeedPathBytes/peak track that high-water mark.
	perSrc := make([]*ssrp.PerSource, len(sources))
	scs := make([]*hubGraph, len(sources))
	shards := make([]*cuckoo.Table, len(sources))
	var buildNanos, enumNanos, assembleNanos atomic.Int64
	var liveSeedPathBytes, peakSeedPathBytes atomic.Int64
	buildOne := func(i int, sc *engine.Scratch) {
		start := time.Now()
		ps := sh.NewPerSource(sources[i])
		ps.TrackPaths = p.TrackPaths
		ps.BuildSmallNearScratch(sc)
		perSrc[i] = ps
		scs[i] = buildSourceCenter(ps, ctr, ct, sc)
		buildNanos.Add(time.Since(start).Nanoseconds())
		maxInto(&peakSeedPathBytes, liveSeedPathBytes.Add(ps.Small.PathStateBytes()))
	}
	enumerateOne := func(i int, sc *engine.Scratch) {
		start := time.Now()
		shards[i] = buildSeedShard(perSrc[i], ctr, sc)
		if perSrc[i].TrackPaths {
			// The compact witness snapshot is taken between the shard
			// enumeration (the last consumer of the full path state)
			// and the release below — the retained provenance plane,
			// not a path-state leak.
			perSrc[i].Snap = perSrc[i].Small.SnapshotProvenance()
		}
		liveSeedPathBytes.Add(-perSrc[i].Small.ReleasePathState())
		enumNanos.Add(time.Since(start).Nanoseconds())
	}
	if err := sh.Pool.PipelineScratchCtx(ctx, len(sources), buildOne, enumerateOne); err != nil {
		return nil, err
	}
	for i := range perSrc {
		stats.AuxNodes += int64(perSrc[i].Small.NumNodes)
		stats.AuxArcs += int64(perSrc[i].Small.NumArcs)
		stats.SCNodes += int64(scs[i].nodes)
		stats.SCArcs += int64(scs[i].arcs)
	}
	stats.StagePerSourceBuild = time.Duration(buildNanos.Load())
	stats.StageSeedEnumerate = time.Duration(enumNanos.Load())
	stats.PeakSeedPathBytes = peakSeedPathBytes.Load()

	// The shard merge is the one cross-source barrier: MinPut is
	// commutative and idempotent, so the merged contents are identical
	// at any worker count, and the source-order fold fixes the layout.
	mergeStart := time.Now()
	seed, seedRehashes := mergeSeedShards(shards)
	stats.StageSeedMerge = time.Since(mergeStart)
	stats.SeedRehashes = seedRehashes
	stats.SeedCount = seed.Len()

	cl, err := buildCenterLandmark(ctx, sh, ctr, seed)
	if err != nil {
		return nil, err
	}
	stats.StageCenterLandmark = cl.BuildTime()
	stats.CLNodes = cl.NumNodes()
	stats.CLArcs = cl.NumArcs()

	// Assembly + sweeps + final combine: independent per source again,
	// with per-source counters merged afterwards.
	results := make([]*rp.Result, len(perSrc))
	type perSourceStats struct {
		combine ssrp.Stats
		sweeps  int
		swImp   int64
	}
	pss := make([]perSourceStats, len(perSrc))
	if err := sh.Pool.RunScratchCtx(ctx, len(perSrc), func(i int, sc *engine.Scratch) {
		start := time.Now()
		defer func() { assembleNanos.Add(time.Since(start).Nanoseconds()) }()
		ps := perSrc[i]
		ps.SetLenSR(assembleLenSR(ps, ctr, scs[i], cl, sc))
		pss[i].sweeps, pss[i].swImp = sweepLandmarks(ps, maxSweeps)
		results[i] = ps.Combine(&pss[i].combine)
	}); err != nil {
		return nil, err
	}
	stats.StageAssembly = time.Duration(assembleNanos.Load())
	for i := range pss {
		if pss[i].sweeps > stats.Sweeps {
			stats.Sweeps = pss[i].sweeps
		}
		stats.SweepImproved += pss[i].swImp
		stats.Queries += pss[i].combine.Queries
		stats.FarScans += pss[i].combine.FarScans
		stats.NearLargeScans += pss[i].combine.NearLargeScans
	}
	sol := &Solution{Results: results, PerSource: perSrc, Stats: stats}
	if p.TrackPaths {
		sol.Prov = newProvenance(sh, ctr, perSrc, scs, cl, seed)
		stats.ProvenanceBytes = sol.Prov.Bytes()
		for _, ps := range perSrc {
			stats.ProvenanceBytes += ps.ProvenanceBytes()
		}
	}
	return sol, nil
}

// maxInto raises *peak to v if v is larger (CAS loop; concurrent
// callers may interleave arbitrarily, the maximum is order-free).
func maxInto(peak *atomic.Int64, v int64) {
	for {
		cur := peak.Load()
		if v <= cur || peak.CompareAndSwap(cur, v) {
			return
		}
	}
}
