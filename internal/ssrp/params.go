package ssrp

import (
	"errors"
	"fmt"
	"math"
)

// Params controls the randomized machinery shared by the SSRP and MSRP
// solvers. The zero value is not valid; start from DefaultParams.
type Params struct {
	// Seed drives all sampling. Fixed seed ⇒ bit-identical runs.
	Seed uint64

	// SampleBoost multiplies every landmark/center sampling probability
	// p_k = min(1, Boost · 4/2^k · √(σ/n)). The paper's analysis uses
	// Boost = 1; tests raise it so the "with high probability" lemmas
	// hold at toy sizes.
	SampleBoost float64

	// SuffixScale multiplies the suffix-length unit
	// X = Scale · √(n/σ) · log₂(n). Near edges lie at distance < 2X
	// from the target; k-far edges at [2^{k+1}X, 2^{k+2}X). Lemma 9's
	// failure probability is n^(−4·Boost·Scale), so keep
	// Boost·Scale ≥ 1.
	SuffixScale float64

	// Parallelism bounds the worker goroutines of the execution engine
	// (internal/engine) across every parallel stage: landmark/center BFS
	// forests, the per-landmark classical runs, and the per-source and
	// per-center MSRP pipeline stages. 1 means sequential; values <= 0
	// select GOMAXPROCS. Output is identical for every value (the engine
	// only shards index-owned work).
	Parallelism int

	// ExhaustiveNear forces every edge to be "near" and every
	// replacement path "small", so the §7.1 auxiliary graph alone
	// answers everything. This mode needs no sampling lemmas at all —
	// it is deterministically exact (Lemma 10's induction is
	// unconditional) — at the cost of a Θ(m·diam)-arc auxiliary graph.
	// Used as a self-check oracle and in ablations.
	ExhaustiveNear bool

	// FlatLandmarks is the E7 ablation: disable the paper's scaling
	// trick and use the dense level-0 landmark set for every far band
	// instead of the geometrically thinned L_k. Output is unchanged
	// (level 0 dominates every L_k in hit probability); the far-edge
	// stage slows from Õ(n) to Õ(n√(nσ)) per target.
	FlatLandmarks bool

	// TrackPaths records provenance during the solve — one entry per
	// answer plus the compact per-source witness snapshots — so
	// PerSource.ReconstructPath can expand any finite answer into a
	// concrete replacement path. Supported by both the single-source
	// pipeline (classic crossing-edge witnesses) and the multi-source §8
	// pipeline (the provenance plane in internal/msrp). Lengths are
	// bit-identical with tracking on or off: tracking only observes the
	// solve, it never steers it.
	TrackPaths bool

	// PaperBottleneck selects the paper's literal §8.3 assembly in the
	// multi-source solver (bottleneck edges + the §8.3.2 auxiliary
	// graph, no fixpoint sweeps) instead of the default sound
	// interval-avoidance assembly. Compared by experiment E10; see
	// the internal/msrp bottleneck.go header for the terminal-interval
	// caveat.
	PaperBottleneck bool
}

// DefaultParams returns the paper-faithful parameter set.
func DefaultParams() Params {
	return Params{
		Seed:        1,
		SampleBoost: 1,
		SuffixScale: 1,
		Parallelism: 1,
	}
}

// ErrBadParams wraps parameter validation failures.
var ErrBadParams = errors.New("ssrp: invalid parameters")

// Validate checks the parameter combination.
func (p Params) Validate() error {
	if p.SampleBoost <= 0 {
		return fmt.Errorf("%w: SampleBoost = %v", ErrBadParams, p.SampleBoost)
	}
	if p.SuffixScale <= 0 {
		return fmt.Errorf("%w: SuffixScale = %v", ErrBadParams, p.SuffixScale)
	}
	// TrackPaths + PaperBottleneck is accepted: the §8.3 bottleneck
	// assembly has no provenance plane (its sr ⋄ B values come from the
	// §8.3.2 graph, which is build-run-discard), so the multi-source
	// solver downgrades tracking per source — lengths are served, path
	// queries fail per query (ErrPathsNotTracked at the public layer)
	// instead of the whole solve being rejected here.
	return nil
}

// suffixUnit computes X for the given graph/source-set size.
func (p Params) suffixUnit(n, sigma int) float64 {
	logn := math.Log2(float64(n))
	if logn < 1 {
		logn = 1
	}
	return p.SuffixScale * math.Sqrt(float64(n)/float64(sigma)) * logn
}
