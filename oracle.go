package msrp

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"msrp/internal/engine"
	msrpcore "msrp/internal/msrp"
	"msrp/internal/ssrp"
)

// ErrNotSource is the sentinel wrapped by every "queried vertex is not
// one of this oracle's sources" error (Query, QueryBatch, Answer.Err).
// Callers — in particular serving front-ends mapping oracle errors to
// HTTP status codes — should test with errors.Is(err, ErrNotSource)
// rather than matching the message, which also carries the offending
// vertex id.
var ErrNotSource = errors.New("msrp: not an oracle source")

// notSourceError wraps ErrNotSource with the offending vertex.
func notSourceError(s int) error {
	return fmt.Errorf("%w: %d", ErrNotSource, s)
}

// ErrRebuildSaturated is the sentinel wrapped by every "on-demand
// provenance rebuild capacity exhausted" error: a path query hit a
// budget-stripped source while Options.MaxProvenanceRebuilds rebuilds
// were already solving. The query was not queued — admission here
// mirrors the serving tier's never-queue stance — and retrying after a
// short backoff will find either the rebuilt provenance (a cache hit)
// or a free rebuild slot. Serving front-ends should test with errors.Is
// and map it to 429 + a derived Retry-After.
var ErrRebuildSaturated = errors.New("msrp: provenance rebuild capacity exhausted")

// rebuildSaturatedError wraps ErrRebuildSaturated with the source.
func rebuildSaturatedError(s int) error {
	return fmt.Errorf("%w: source %d", ErrRebuildSaturated, s)
}

// Query is one replacement-path question for Oracle.QueryBatch: the
// length of the shortest Source→Target path avoiding the edge {U, V}.
// Paths additionally requests the concrete replacement path in
// Answer.Path (the oracle must have been built with
// Options.TrackPaths, else the answer carries ErrPathsNotTracked).
type Query struct {
	Source, Target int
	U, V           int
	Paths          bool
}

// Answer is the result of one Query. Err is non-nil when the query was
// malformed (unknown source, missing edge, edge off the canonical
// path) or when paths were requested from an untracked oracle; Length
// is NoPath when the avoided edge is a bridge. Path holds the
// replacement path's vertex sequence (source first, target last) when
// the query requested it and a replacement path exists; it is a
// machine-checkable certificate — a real walk in G−e of exactly Length
// edges.
type Answer struct {
	Length int32
	Path   []int32
	Err    error
}

// Oracle is a concurrency-safe, batch-oriented replacement-path server
// over a fixed graph and source set, in the spirit of the
// fault-tolerant distance oracles the paper's related-work section
// surveys (Bernstein–Karger, Demetrescu et al.).
//
// Construction is lazy: NewOracle performs only the source-independent
// preprocessing (the landmark family and its BFS forest, shared by
// every source — Õ(m√(nσ))). A source's full result materializes the
// first time a query needs it, deduplicated across concurrent callers
// by single-flight, and is retained in an LRU bounded by
// Options.MaxCachedSources — so σ can exceed what fits in memory for
// all-at-once construction. Warm forces the all-sources batch build
// (the paper's Theorem 1 pipeline), which is the faster route when
// every source will be queried and memory allows.
//
// Answers are deterministic: a given oracle configuration (graph,
// source set, options) yields the same answer for the same query
// regardless of Parallelism, query order, cache evictions, or
// concurrent callers. Every answer is sound (achievable by a real
// path, NoPath only when provably no candidate exists) and exact with
// probability ≥ 1 − 1/n per the paper's lemmas. The one fine print:
// lazy builds use the single-source pipeline while Warm uses the
// multi-source §8 pipeline; on the ≤ 1/n-probability entries where the
// sampling misses, the two (individually deterministic, always sound)
// paths may disagree, so an answer served before a Warm can differ
// from one served after an eviction-then-Warm rebuild.
type Oracle struct {
	g        *Graph
	opts     Options
	sources  []int
	isSource map[int]bool
	sh       *ssrp.Shared
	pool     *engine.Pool
	// seq is the long-lived sequential inner pool handed to per-source
	// builds triggered by QueryBatch, whose fan-out is already across
	// sources. One pool for the oracle's lifetime means its scratch free
	// list carries build buffers from batch to batch; allocating a fresh
	// pool per batch made every batched lazy build regrow its scratch
	// from nothing.
	seq *engine.Pool

	mu       sync.Mutex
	cache    map[int]*lruEntry
	lruHead  *lruEntry // most recently used
	lruTail  *lruEntry // least recently used; next eviction
	inflight map[int]*oracleCall
	warming  *warmCall // in-flight Warm, nil when idle (single-flight)
	warmed   bool      // a Warm pipeline has completed; repeats are no-ops

	// rebuildSem bounds concurrent on-demand tracked rebuilds (path
	// queries against budget-stripped sources); nil = unbounded. Slots
	// are acquired non-blocking under mu — an over-limit rebuild fails
	// fast with ErrRebuildSaturated instead of piling another full solve
	// behind the ones already running. rebuildActive/rebuildPeak observe
	// the bound (the storm test asserts peak ≤ limit under -race).
	rebuildSem    chan struct{}
	rebuildActive atomic.Int64
	rebuildPeak   atomic.Int64

	// Serving counters (Stats). Plain atomics so the query hot path
	// never takes an extra lock and concurrent batches never contend on
	// observability.
	hits          atomic.Int64
	misses        atomic.Int64
	builds        atomic.Int64
	buildNanos    atomic.Int64
	evictions     atomic.Int64
	batches       atomic.Int64
	batchQueries  atomic.Int64
	warms         atomic.Int64
	rejections    atomic.Int64
	cancellations atomic.Int64

	// Stage breakdown of the most recent completed Warm pipeline,
	// guarded by mu (written once per warm, far off the query path).
	warmStages        StageTimes
	warmPeakSeedBytes int64

	// provBytes tracks the retained provenance plane (guarded by mu):
	// per-entry snapshot/provenance bytes move with LRU inserts,
	// evictions, and budget strips.
	provBytes int64
	// The provenance tier (guarded by mu): a second LRU over the cache
	// entries that carry individually-freeable provenance, ordered by
	// path-query recency. When provBytes exceeds
	// Options.MaxProvenanceBytes the tail entries are stripped — their
	// provenance dropped, their cached lengths kept — and a later path
	// query rebuilds tracked state through the single-flight path.
	provHead *lruEntry // most recently path-queried
	provTail *lruEntry // least recently path-queried; next strip
	// Tier counters and the compaction before/after record of the most
	// recent Warm (all guarded by mu; they are only written under it).
	provenanceEvictions int64
	provenanceRebuilds  int64
	provRawBytes        int64
	provCompactedBytes  int64
	// rebuildRejects counts rebuild attempts turned away by rebuildSem
	// (an atomic: it is bumped after mu is released).
	rebuildRejects atomic.Int64
	// warmProv pins the warm provenance plane (guarded by mu) — but only
	// on the fallback path where post-solve compaction failed and the
	// full shared §8 plane (parent chains, seed table, center forest)
	// must stay alive as one immortal unit. The normal path compacts the
	// plane into self-contained per-source records that live and die
	// with their cache entries, so nothing needs pinning and the byte
	// budget can actually free memory.
	warmProv *msrpcore.Solution
}

// StageTimes is the per-stage latency breakdown of one §8 batch solve
// (the pipeline Warm runs). Every stage is wall time summed over its
// items — sources for build/enumeration/assembly, centers for the
// §8.2.2 stage — the measure that stays comparable at any parallelism;
// the seed merge is one sequential fold, timed once.
// Serving front-ends use the build-side numbers to inform load
// shedding with measured latency rather than a static cap.
type StageTimes struct {
	// PerSourceBuild covers the §7.1 small-near and §8.1 source–center
	// builds.
	PerSourceBuild time.Duration
	// SeedEnumerate covers the §8.2.1 per-source shard enumeration.
	SeedEnumerate time.Duration
	// SeedMerge covers folding the shards into the seed table.
	SeedMerge time.Duration
	// CenterLandmark covers the §8.2.2 per-center solves.
	CenterLandmark time.Duration
	// Assembly covers the per-source assembly, sweeps, and combine.
	Assembly time.Duration
}

// OracleStats is a point-in-time snapshot of an Oracle's serving
// counters. Snapshots are monotone: every field only grows over the
// oracle's lifetime.
type OracleStats struct {
	// Hits and Misses count per-source cache lookups on the query path.
	// A miss either triggers a build or joins one already in flight.
	Hits, Misses int64
	// Builds counts lazy per-source materializations; BuildTime is
	// their summed wall clock (divide for the mean per-source build
	// latency).
	Builds    int64
	BuildTime time.Duration
	// Evictions counts sources dropped by the MaxCachedSources LRU.
	Evictions int64
	// Batches and BatchQueries describe QueryBatch traffic (divide for
	// the mean batch size).
	Batches, BatchQueries int64
	// Warms counts Warm calls that ran the batch §8 pipeline to
	// successful completion (joiners of an in-flight warm and warms that
	// errored or were cancelled do not count).
	Warms int64
	// Rejections counts requests turned away by admission control (a
	// serving front-end reporting 429 via RecordRejection).
	Rejections int64
	// Cancellations counts QueryBatchContext/WarmContext calls that
	// returned early because their context was cancelled.
	Cancellations int64
	// ProvenanceBytes is the retained footprint of the path-provenance
	// plane under Options.TrackPaths — what tracking keeps alive that a
	// length-only oracle would have dropped. Lazy builds contribute per
	// cached entry (witness snapshot + Value-lookup plane + answer
	// provenance + witnesses); a completed Warm compacts its shared §8
	// plane into self-contained per-source records and contributes those
	// per entry too. Either way an entry's provenance is freed by LRU
	// eviction or by a MaxProvenanceBytes budget strip, so the gauge
	// tracks memory that can actually be reclaimed. (Fallback fine
	// print: if post-warm compaction fails, the full plane is pinned for
	// the oracle's lifetime and counted once — recognizable by
	// ProvenanceCompactedBytes staying 0 after a tracked warm.) 0 on
	// untracked oracles. Unlike the other counters it is a gauge, not a
	// monotone counter.
	ProvenanceBytes int64
	// ProvenanceEvictions counts sources whose provenance was dropped by
	// the MaxProvenanceBytes budget. The source's lengths stay cached
	// and keep serving; only path expansion requires a rebuild.
	ProvenanceEvictions int64
	// ProvenanceRebuilds counts on-demand tracked rebuilds triggered by
	// a path query against a source whose provenance had been evicted.
	ProvenanceRebuilds int64
	// ProvenanceRebuildRejects counts rebuild attempts turned away by
	// Options.MaxProvenanceRebuilds admission (ErrRebuildSaturated) —
	// the thundering herd the bound absorbed.
	ProvenanceRebuildRejects int64
	// ProvenanceRawBytes and ProvenanceCompactedBytes record the most
	// recent completed Warm's provenance plane before and after
	// post-solve compaction (zero before any tracked warm; compacted
	// stays zero if compaction fell back to pinning the raw plane).
	ProvenanceRawBytes       int64
	ProvenanceCompactedBytes int64
	// WarmStages is the stage-latency breakdown of the most recent
	// completed Warm pipeline (zero before any warm completes).
	WarmStages StageTimes
	// WarmPeakSeedPathBytes is that pipeline's high-water mark of live
	// §7.1 path-expansion state — Θ(Parallelism·aux), because each
	// source's state is released as soon as its seed shard is
	// enumerated.
	WarmPeakSeedPathBytes int64
}

// HitRate returns the fraction of cache lookups served without
// building, or 0 before any lookup.
func (s OracleStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// AvgBuildLatency returns the mean per-source build time, or 0 before
// any build.
func (s OracleStats) AvgBuildLatency() time.Duration {
	if s.Builds == 0 {
		return 0
	}
	return s.BuildTime / time.Duration(s.Builds)
}

// AvgBatchSize returns the mean QueryBatch size, or 0 before any batch.
func (s OracleStats) AvgBatchSize() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.BatchQueries) / float64(s.Batches)
}

// Stats snapshots the serving counters. Safe for concurrent use; the
// counter fields are read individually (plain atomics, no lock on the
// query path), so a snapshot taken while queries are in flight may be
// torn by at most the in-flight operations. The warm-stage fields are
// read under the oracle lock (they are written once per completed
// Warm).
func (o *Oracle) Stats() OracleStats {
	o.mu.Lock()
	warmStages := o.warmStages
	warmPeak := o.warmPeakSeedBytes
	provBytes := o.provBytes
	provEvictions := o.provenanceEvictions
	provRebuilds := o.provenanceRebuilds
	provRaw := o.provRawBytes
	provCompacted := o.provCompactedBytes
	o.mu.Unlock()
	return OracleStats{
		ProvenanceBytes:          provBytes,
		ProvenanceEvictions:      provEvictions,
		ProvenanceRebuilds:       provRebuilds,
		ProvenanceRebuildRejects: o.rebuildRejects.Load(),
		ProvenanceRawBytes:       provRaw,
		ProvenanceCompactedBytes: provCompacted,
		Hits:                     o.hits.Load(),
		Misses:                   o.misses.Load(),
		Builds:                   o.builds.Load(),
		BuildTime:                time.Duration(o.buildNanos.Load()),
		Evictions:                o.evictions.Load(),
		Batches:                  o.batches.Load(),
		BatchQueries:             o.batchQueries.Load(),
		Warms:                    o.warms.Load(),
		Rejections:               o.rejections.Load(),
		Cancellations:            o.cancellations.Load(),
		WarmStages:               warmStages,
		WarmPeakSeedPathBytes:    warmPeak,
	}
}

// RecordRejection counts one admission-control rejection. The Oracle
// never rejects work itself; this is the hook a serving front-end
// (internal/server) calls when it turns a request away over capacity,
// so rejected traffic shows up in the same Stats() snapshot as the
// served traffic.
func (o *Oracle) RecordRejection() { o.rejections.Add(1) }

// Options returns the options the oracle was constructed with (a copy;
// mutating it does not affect the oracle). Serving front-ends use it to
// derive admission-control defaults from MaxCachedSources.
func (o *Oracle) Options() Options { return o.opts }

type lruEntry struct {
	s          int
	res        *Result
	provBytes  int64 // per-entry provenance footprint, for the gauge
	prev, next *lruEntry
	// Provenance-tier links: a second LRU (ordered by path-query
	// recency) over the entries whose provenance is individually
	// freeable. inProv marks membership; stripped and zero-weight
	// entries are not linked.
	provPrev, provNext *lruEntry
	inProv             bool
}

type oracleCall struct {
	done chan struct{}
	res  *Result
}

// warmCall is one in-flight Warm shared by every concurrent caller
// (single-flight): joiners wait on done and share err.
type warmCall struct {
	done chan struct{}
	err  error
}

// NewOracle prepares an oracle over the given sources. Only the shared
// preprocessing runs here; per-source results are built on first use
// (or all at once by Warm).
func NewOracle(g *Graph, sources []int, opts Options) (*Oracle, error) {
	if g == nil {
		return nil, ErrNilGraph
	}
	srcs := make([]int32, len(sources))
	for i, s := range sources {
		srcs[i] = int32(s)
	}
	sh, err := ssrp.NewShared(g.g, srcs, opts.params())
	if err != nil {
		return nil, err
	}
	o := &Oracle{
		g:        g,
		opts:     opts,
		sources:  append([]int(nil), sources...),
		isSource: make(map[int]bool, len(sources)),
		sh:       sh,
		pool:     sh.Pool,
		seq:      engine.New(1),
		cache:    make(map[int]*lruEntry, len(sources)),
		inflight: make(map[int]*oracleCall),
	}
	for _, s := range sources {
		o.isSource[s] = true
	}
	if limit := opts.rebuildLimit(); limit > 0 {
		o.rebuildSem = make(chan struct{}, limit)
	}
	return o, nil
}

// rebuildLimit resolves Options.MaxProvenanceRebuilds: explicit
// positive values pass through, negative means unbounded (0 — no
// semaphore), and 0 derives max(1, Parallelism/2) with Parallelism ≤ 0
// resolved to GOMAXPROCS, mirroring how the engine sizes its pool.
func (o Options) rebuildLimit() int {
	switch {
	case o.MaxProvenanceRebuilds > 0:
		return o.MaxProvenanceRebuilds
	case o.MaxProvenanceRebuilds < 0:
		return 0
	}
	p := o.Parallelism
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p /= 2; p < 1 {
		p = 1
	}
	return p
}

// Sources returns the oracle's source set in construction order.
func (o *Oracle) Sources() []int { return append([]int(nil), o.sources...) }

// IsSource reports whether v is one of the oracle's sources — the
// membership test a routing tier needs for placement decisions without
// copying the whole source set per check.
func (o *Oracle) IsSource(v int) bool { return o.isSource[v] }

// CachedSourceIDs returns the source ids whose per-source results are
// currently materialized, in ascending order. This is the cache's
// *contents* (CachedSources is just its size): a router deciding where
// a source's queries should land — or whether handing a hash slice back
// to a rejoined replica will hit warm state — reads this instead of
// guessing.
func (o *Oracle) CachedSourceIDs() []int {
	o.mu.Lock()
	ids := make([]int, 0, len(o.cache))
	for s := range o.cache {
		ids = append(ids, s)
	}
	o.mu.Unlock()
	sort.Ints(ids)
	return ids
}

// WarmSources materializes the given subset of sources (each must be an
// oracle source), sharding the builds across the engine pool. Unlike
// Warm it uses the per-source lazy build path rather than the §8 batch
// pipeline, so the cached results are bit-identical to what on-demand
// queries would have built — the property a replica fleet needs when a
// router warms each replica's hash slice and expects every replica to
// agree with a lazily-built single process. Already-cached sources are
// no-ops (touched, not rebuilt); concurrent callers share in-flight
// builds via the usual single-flight path.
func (o *Oracle) WarmSources(ctx context.Context, sources []int) error {
	for _, s := range sources {
		if !o.isSource[s] {
			return notSourceError(s)
		}
	}
	err := o.pool.RunCtx(ctx, len(sources), func(i int) {
		_, _ = o.result(ctx, sources[i], o.seq) // validated above; err is only ctx
	})
	if err != nil {
		o.cancellations.Add(1)
	}
	return err
}

// Query answers a single replacement-path question; s must be one of
// the oracle's sources. Safe for concurrent use.
func (o *Oracle) Query(s, t, u, v int) (int32, error) {
	res, err := o.result(context.Background(), s, o.pool)
	if err != nil {
		return 0, err
	}
	return res.AvoidEdge(t, u, v)
}

// QueryBatch answers a batch of queries, one Answer per Query in
// order. Sources that are not yet materialized are built concurrently
// (sharded across the engine pool), each exactly once even under
// concurrent batches. Safe for concurrent use.
func (o *Oracle) QueryBatch(queries []Query) []Answer {
	answers, _ := o.QueryBatchContext(context.Background(), queries)
	return answers
}

// QueryBatchContext is QueryBatch with cancellation. Workers observe
// ctx between per-source builds, so a cancelled batch returns promptly
// — bounded by the builds already in flight, not by the batch — with a
// nil answer slice and ctx.Err(). Builds that were in flight when the
// cancel landed run to completion and stay cached (the LRU is never
// left with partial state), so subsequent queries on the same oracle
// return exactly what an uncancelled run would have.
func (o *Oracle) QueryBatchContext(ctx context.Context, queries []Query) ([]Answer, error) {
	if err := ctx.Err(); err != nil {
		o.cancellations.Add(1)
		return nil, err
	}
	o.batches.Add(1)
	o.batchQueries.Add(int64(len(queries)))
	answers := make([]Answer, len(queries))

	// Group query indices by source, keeping first-seen order, and note
	// which sources need provenance present (a path query against a
	// budget-stripped source must go through the rebuilding path).
	bySource := make(map[int][]int)
	needPaths := make(map[int]bool)
	var order []int
	for i, q := range queries {
		if !o.isSource[q.Source] {
			answers[i].Err = notSourceError(q.Source)
			continue
		}
		if _, seen := bySource[q.Source]; !seen {
			order = append(order, q.Source)
		}
		bySource[q.Source] = append(bySource[q.Source], i)
		if q.Paths {
			needPaths[q.Source] = true
		}
	}

	// Materialize the batch's sources in parallel. The fan-out is
	// across sources here, so each per-source build runs its landmark
	// stage sequentially (single-level parallelism) on the oracle's
	// long-lived inner pool, whose free list reuses build scratch
	// across batches.
	results := make([]*Result, len(order))
	errs := make([]error, len(order))
	err := o.pool.RunCtx(ctx, len(order), func(i int) {
		if needPaths[order[i]] {
			results[i], errs[i] = o.resultWithPaths(ctx, order[i], o.seq)
		} else {
			results[i], errs[i] = o.result(ctx, order[i], o.seq) // source validated above
		}
	})
	if err != nil {
		o.cancellations.Add(1)
		return nil, err
	}

	for i, s := range order {
		res := results[i]
		if res == nil {
			// The source failed to materialize — rebuild admission
			// (ErrRebuildSaturated) or a per-source cancellation race.
			// Per-item verdicts, never a lost answer.
			serr := errs[i]
			if serr == nil {
				serr = fmt.Errorf("msrp: source %d failed to materialize", s)
			}
			for _, qi := range bySource[s] {
				answers[qi].Err = serr
			}
			continue
		}
		for _, qi := range bySource[s] {
			q := queries[qi]
			// One edge resolution serves both the length lookup and the
			// optional path expansion.
			idx, err := res.pathEdgeIndex(q.Target, q.U, q.V)
			if err != nil {
				answers[qi].Err = err
				continue
			}
			answers[qi].Length = res.res.Len[q.Target][idx]
			if q.Paths && answers[qi].Length != NoPath {
				answers[qi].Path, answers[qi].Err = res.ReplacementPath(q.Target, idx)
			}
		}
	}
	return answers, nil
}

// QueryPath answers a single replacement-path question with the
// concrete path: the shortest s→t walk avoiding the edge {u, v}
// (source first, t last), or nil when the edge is a bridge (the NoPath
// case). The oracle must have been built with Options.TrackPaths, else
// ErrPathsNotTracked. Safe for concurrent use.
func (o *Oracle) QueryPath(s, t, u, v int) ([]int32, error) {
	res, err := o.resultWithPaths(context.Background(), s, o.pool)
	if err != nil {
		return nil, err
	}
	return res.ReplacementPathForEdge(t, u, v)
}

// Result returns the full per-source result, materializing it if
// needed, or nil when s is not an oracle source. Safe for concurrent
// use. The result stays valid even after the LRU evicts it.
func (o *Oracle) Result(s int) *Result {
	res, err := o.result(context.Background(), s, o.pool)
	if err != nil {
		return nil
	}
	return res
}

// Warm builds the results of every source in one batch via the MSRP
// pipeline over the oracle's existing shared preprocessing (Theorem 1:
// Õ(m√(nσ) + σn²) — cheaper than σ lazy builds, and the landmark
// stage is not repeated) and caches them, subject to the LRU bound.
// Sources already materialized are kept as-is; repeated calls are
// deterministic, and once a warm has completed further calls are
// no-ops (with a bounded LRU the σn² pipeline would only recompute
// results the bound is going to evict again, churning the genuinely
// hot entries out on the way).
//
// Warms are single-flight: concurrent callers join the pipeline run
// already in flight and share its outcome rather than racing a second
// σn² build.
func (o *Oracle) Warm() error { return o.WarmContext(context.Background()) }

// WarmContext is Warm with cancellation. The §8 pipeline observes ctx
// between its per-source stage items, so a cancelled warm returns
// promptly; nothing from a cancelled run enters the cache. The
// pipeline runs on the initiating caller's context, so that caller
// cancelling aborts the shared run; a joiner that inherits such an
// abort retries with its own context rather than surfacing someone
// else's cancellation.
func (o *Oracle) WarmContext(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			o.cancellations.Add(1)
			return err
		}
		o.mu.Lock()
		if o.warmed || len(o.cache) == len(o.sources) {
			o.mu.Unlock()
			return nil
		}
		if c := o.warming; c != nil {
			o.mu.Unlock()
			select {
			case <-c.done:
				if c.err == nil {
					return nil
				}
				// The leader's run failed. If it died of its *own*
				// context (not ours — ours is checked at the top of the
				// loop), the failure says nothing about our request:
				// retry, becoming the leader if the slot is still free.
				if errors.Is(c.err, context.Canceled) || errors.Is(c.err, context.DeadlineExceeded) {
					continue
				}
				return c.err
			case <-ctx.Done():
				o.cancellations.Add(1)
				return ctx.Err()
			}
		}
		c := &warmCall{done: make(chan struct{})}
		o.warming = c
		o.mu.Unlock()

		sol, err := msrpcore.SolveSharedContext(ctx, o.sh)

		// Compact the provenance plane before anything is published: the
		// solution is still private to this goroutine (outside the
		// oracle lock, so queries keep flowing during the re-walk).
		// Compaction replaces the shared §8 plane — parent chains, seed
		// table, center forest, whose explain reach made warm provenance
		// one immortal unit — with self-contained per-source records
		// that the LRU and the byte budget can free individually.
		var rawProvBytes int64
		if err == nil && sol.Prov != nil {
			rawProvBytes = sol.Stats.ProvenanceBytes
			// On error the full plane stays installed and functional;
			// the fallback below pins it exactly as pre-compaction
			// oracles did.
			_ = sol.CompactProvenance()
		}

		o.mu.Lock()
		if err == nil {
			solveStats := sol.Stats
			o.warms.Add(1) // count only pipeline runs that completed
			o.warmed = true
			o.warmStages = StageTimes{
				PerSourceBuild: solveStats.StagePerSourceBuild,
				SeedEnumerate:  solveStats.StageSeedEnumerate,
				SeedMerge:      solveStats.StageSeedMerge,
				CenterLandmark: solveStats.StageCenterLandmark,
				Assembly:       solveStats.StageAssembly,
			}
			o.warmPeakSeedBytes = solveStats.PeakSeedPathBytes
			switch {
			case sol.Compact != nil:
				o.provRawBytes = rawProvBytes
				o.provCompactedBytes = solveStats.ProvenanceBytes
			case sol.Prov != nil:
				// Compaction failed: pin the raw plane for the oracle's
				// lifetime and count it once (zero per-entry weight
				// below — evicting an entry frees nothing of it).
				// ProvenanceCompactedBytes staying 0 flags this mode.
				o.warmProv = sol
				o.provBytes += rawProvBytes
				o.provRawBytes = rawProvBytes
			}
			for i, s := range o.sources {
				if _, ok := o.cache[s]; !ok {
					res := wrapResult(o.g.g, sol.Results[i])
					var pb int64
					if sol.PerSource[i].TrackPaths {
						res.ps = sol.PerSource[i]
						if sol.Compact != nil {
							pb = sol.PerSource[i].ProvenanceBytes() + sol.Compact[i].Bytes()
						}
					}
					o.insertLocked(s, res, pb)
				}
			}
		}
		o.warming = nil
		o.mu.Unlock()
		if err != nil && ctx.Err() != nil {
			o.cancellations.Add(1)
		}
		c.err = err
		close(c.done)
		return err
	}
}

// CachedSources returns how many per-source results are currently
// materialized (for observability and tests).
func (o *Oracle) CachedSources() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.cache)
}

// result returns the materialized result for s, building it at most
// once across concurrent callers (single-flight). pool bounds the
// landmark fan-out of a build triggered by this call.
//
// Cancellation boundary: ctx is observed before starting or joining a
// build — never during one. A build that has started always runs to
// completion and is cached, so the LRU can never hold partial state
// and single-flight joiners always receive a complete result; a joiner
// whose ctx cancels mid-wait detaches with ctx.Err() while the build
// continues for everyone else.
func (o *Oracle) result(ctx context.Context, s int, pool *engine.Pool) (*Result, error) {
	if !o.isSource[s] {
		return nil, notSourceError(s)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	o.mu.Lock()
	if e, ok := o.cache[s]; ok {
		o.touchLocked(e)
		res := e.res
		o.mu.Unlock()
		o.hits.Add(1)
		return res, nil
	}
	if c, ok := o.inflight[s]; ok {
		o.mu.Unlock()
		o.misses.Add(1)
		if done := ctx.Done(); done != nil {
			select {
			case <-c.done:
			case <-done:
				return nil, ctx.Err()
			}
		} else {
			<-c.done
		}
		return c.res, nil
	}
	c := &oracleCall{done: make(chan struct{})}
	o.inflight[s] = c
	o.mu.Unlock()
	o.misses.Add(1)

	built := o.build(int32(s), pool)

	o.mu.Lock()
	if e, ok := o.cache[s]; ok {
		// A concurrent Warm landed while we were building: its entry is
		// already linked, so serve it and drop our build — inserting a
		// second entry for s would desynchronize the LRU list from the
		// cache map.
		o.touchLocked(e)
		c.res = e.res
	} else {
		c.res = built
		o.insertLocked(s, built, built.ProvenanceBytes())
	}
	delete(o.inflight, s)
	o.mu.Unlock()
	close(c.done)
	return c.res, nil
}

// resultWithPaths is result for path queries: it returns a Result
// whose provenance is present, rebuilding it when the byte budget had
// stripped it. A cache hit whose entry still carries provenance is
// served directly (and touched in the provenance tier — the tier's
// recency is path-query recency). A stripped entry keeps serving
// lengths through result(); here it triggers a tracked rebuild through
// the same single-flight path a cold miss uses, and the rebuilt state
// replaces the stripped entry's Result wholesale, so an entry's lengths
// and paths always come from one build. On an untracked oracle this is
// just result() — the ErrPathsNotTracked surface is unchanged.
//
// Rebuilds use the lazy single-source pipeline even when the stripped
// entry came from a Warm; the two pipelines agree except on
// ≤ 1/n-probability sampling misses (the documented eviction-then-
// rebuild fine print, which budget strips share).
func (o *Oracle) resultWithPaths(ctx context.Context, s int, pool *engine.Pool) (*Result, error) {
	if !o.opts.TrackPaths {
		return o.result(ctx, s, pool)
	}
	if !o.isSource[s] {
		return nil, notSourceError(s)
	}
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		o.mu.Lock()
		if e, ok := o.cache[s]; ok && e.res.ps != nil {
			o.touchLocked(e)
			o.provTouchLocked(e)
			res := e.res
			o.mu.Unlock()
			o.hits.Add(1)
			return res, nil
		}
		_, rebuilding := o.cache[s] // present but stripped
		if c, ok := o.inflight[s]; ok {
			o.mu.Unlock()
			o.misses.Add(1)
			if done := ctx.Done(); done != nil {
				select {
				case <-c.done:
				case <-done:
					return nil, ctx.Err()
				}
			} else {
				<-c.done
			}
			if c.res != nil && c.res.ps != nil {
				return c.res, nil
			}
			// The joined flight resolved to a stripped result (a race
			// with the budget); retry as leader.
			continue
		}
		if rebuilding && o.rebuildSem != nil {
			// Admission for on-demand rebuilds: each one is a full
			// per-source solve that only exists because the byte budget
			// stripped this source, so a storm of them must not stack
			// unbounded solves behind the serving tier's back. The
			// acquire is non-blocking (never queue): over the limit the
			// query fails fast with ErrRebuildSaturated and the caller
			// backs off with a derived Retry-After.
			select {
			case o.rebuildSem <- struct{}{}:
			default:
				o.mu.Unlock()
				o.rebuildRejects.Add(1)
				return nil, rebuildSaturatedError(s)
			}
		}
		c := &oracleCall{done: make(chan struct{})}
		o.inflight[s] = c
		o.mu.Unlock()
		o.misses.Add(1)
		if rebuilding {
			n := o.rebuildActive.Add(1)
			for {
				p := o.rebuildPeak.Load()
				if n <= p || o.rebuildPeak.CompareAndSwap(p, n) {
					break
				}
			}
		}

		built := o.build(int32(s), pool)

		if rebuilding {
			o.rebuildActive.Add(-1)
			if o.rebuildSem != nil {
				<-o.rebuildSem
			}
		}

		o.mu.Lock()
		if e, ok := o.cache[s]; ok {
			if e.res.ps != nil {
				// A concurrent Warm (or rebuild) landed with provenance;
				// serve it and drop our build.
				o.touchLocked(e)
				o.provTouchLocked(e)
				c.res = e.res
			} else {
				// Replace the stripped entry's Result with the rebuilt
				// one and re-admit its bytes to the tier and the budget.
				e.res = built
				e.provBytes = built.ProvenanceBytes()
				o.provBytes += e.provBytes
				if e.provBytes > 0 {
					o.provLinkLocked(e)
				}
				o.touchLocked(e)
				o.enforceProvBudgetLocked()
				c.res = built
			}
		} else {
			c.res = built
			o.insertLocked(s, built, built.ProvenanceBytes())
		}
		if rebuilding {
			o.provenanceRebuilds++
		}
		delete(o.inflight, s)
		o.mu.Unlock()
		close(c.done)
		return c.res, nil
	}
}

// build materializes one source against the shared preprocessing: the
// §7.1 small-near graph, exact landmark replacement lengths via the
// classical algorithm (sharded over pool), and the per-target combine.
// Deterministic in (graph, source set, options) alone. Under
// Options.TrackPaths the build also records the provenance plane (the
// witness snapshot and the classic crossing-edge witnesses), so the
// result expands paths; lengths are unchanged.
func (o *Oracle) build(s int32, pool *engine.Pool) *Result {
	start := time.Now()
	ps := o.sh.NewPerSource(s)
	ps.TrackPaths = o.opts.TrackPaths
	ps.BuildSmallNear()
	if ps.TrackPaths {
		ps.Snap = ps.Small.SnapshotProvenance()
	}
	ps.ComputeLenSRClassicPool(pool)
	res := wrapResult(o.g.g, ps.Combine(nil))
	if ps.TrackPaths {
		res.ps = ps
	}
	o.builds.Add(1)
	o.buildNanos.Add(int64(time.Since(start)))
	return res
}

// insertLocked adds s at the LRU head and evicts beyond the bound.
// provBytes is the provenance footprint an eviction of this entry
// actually frees: the per-result bytes for a lazy build or a compacted
// warm entry, 0 for a fallback warm entry (its state belongs to the
// pinned raw plane, accounted once at warm time). Entries with a
// nonzero footprint also join the provenance tier, and the byte budget
// is enforced on the way out — so the gauge never exceeds
// MaxProvenanceBytes, even transiently. Callers hold o.mu.
func (o *Oracle) insertLocked(s int, res *Result, provBytes int64) {
	e := &lruEntry{s: s, res: res, provBytes: provBytes}
	o.provBytes += e.provBytes
	o.cache[s] = e
	e.next = o.lruHead
	if o.lruHead != nil {
		o.lruHead.prev = e
	}
	o.lruHead = e
	if o.lruTail == nil {
		o.lruTail = e
	}
	if e.provBytes > 0 {
		o.provLinkLocked(e)
	}
	if max := o.opts.MaxCachedSources; max > 0 {
		for len(o.cache) > max {
			victim := o.lruTail
			o.removeLocked(victim)
			o.provUnlinkLocked(victim)
			delete(o.cache, victim.s)
			o.provBytes -= victim.provBytes
			o.evictions.Add(1)
		}
	}
	o.enforceProvBudgetLocked()
}

// stripLocked drops e's provenance but keeps its cached lengths: the
// entry's Result is replaced by a ps-free copy — never mutated in
// place, because concurrent query callers may hold the original, whose
// path expansion must keep working — and its bytes leave the gauge.
// Callers hold o.mu.
func (o *Oracle) stripLocked(e *lruEntry) {
	o.provUnlinkLocked(e)
	stripped := *e.res
	stripped.ps = nil
	e.res = &stripped
	o.provBytes -= e.provBytes
	e.provBytes = 0
	o.provenanceEvictions++
}

// enforceProvBudgetLocked strips least-recently-path-queried entries
// until the gauge fits MaxProvenanceBytes (0 = unlimited). A single
// over-budget entry is stripped too — the budget is a hard bound, not
// advisory; the caller that triggered the insert still holds the
// unstripped Result and serves its paths. Only per-entry bytes are
// strippable: on the compaction-fallback path the pinned raw plane can
// keep the gauge above budget with nothing left to strip. Callers hold
// o.mu.
func (o *Oracle) enforceProvBudgetLocked() {
	max := o.opts.MaxProvenanceBytes
	if max <= 0 {
		return
	}
	for o.provBytes > max && o.provTail != nil {
		o.stripLocked(o.provTail)
	}
}

// provLinkLocked adds e at the provenance tier's head. Callers hold
// o.mu; e must not already be linked.
func (o *Oracle) provLinkLocked(e *lruEntry) {
	e.inProv = true
	e.provPrev = nil
	e.provNext = o.provHead
	if o.provHead != nil {
		o.provHead.provPrev = e
	}
	o.provHead = e
	if o.provTail == nil {
		o.provTail = e
	}
}

// provUnlinkLocked removes e from the provenance tier (no-op when not a
// member). Callers hold o.mu.
func (o *Oracle) provUnlinkLocked(e *lruEntry) {
	if !e.inProv {
		return
	}
	if e.provPrev != nil {
		e.provPrev.provNext = e.provNext
	} else {
		o.provHead = e.provNext
	}
	if e.provNext != nil {
		e.provNext.provPrev = e.provPrev
	} else {
		o.provTail = e.provPrev
	}
	e.provPrev, e.provNext = nil, nil
	e.inProv = false
}

// provTouchLocked moves e to the provenance tier's head (path-query
// recency). Callers hold o.mu.
func (o *Oracle) provTouchLocked(e *lruEntry) {
	if !e.inProv || o.provHead == e {
		return
	}
	o.provUnlinkLocked(e)
	o.provLinkLocked(e)
}

// touchLocked moves e to the LRU head. Callers hold o.mu.
func (o *Oracle) touchLocked(e *lruEntry) {
	if o.lruHead == e {
		return
	}
	o.removeLocked(e)
	e.prev = nil
	e.next = o.lruHead
	if o.lruHead != nil {
		o.lruHead.prev = e
	}
	o.lruHead = e
	if o.lruTail == nil {
		o.lruTail = e
	}
}

// removeLocked unlinks e from the LRU list. Callers hold o.mu.
func (o *Oracle) removeLocked(e *lruEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		o.lruHead = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		o.lruTail = e.prev
	}
	e.prev, e.next = nil, nil
}
