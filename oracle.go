package msrp

import (
	"container/list"
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
	// compact re-encodes a tracked warm's provenance plane into
	// per-source records ((*msrpcore.Solution).CompactProvenance; a field
	// so tests can force its failure path).
	compact func(*msrpcore.Solution) error

	mu    sync.Mutex
	cache map[int]*entry
	// lru orders every cached entry by use; its back is the next
	// MaxCachedSources eviction. prov orders the entries holding
	// provenance by path-query recency; its back is the next
	// MaxProvenanceBytes strip. Both hold *entry values.
	lru, prov list.List
	// inflight is the single-flight table: one flight per source whose
	// lazy build or provenance rebuild is running. Every build on a
	// tracked oracle is tracked, so the source alone is the key.
	inflight map[int]*flight
	warming  *flight // in-flight Warm, nil when idle (single-flight)
	warmed   bool    // a Warm pipeline has completed; repeats are no-ops

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

	// provBytes is the provenance gauge (guarded by mu): the sum of the
	// cached entries' provBytes. When it exceeds
	// Options.MaxProvenanceBytes the back of prov is stripped — its
	// provenance dropped, its cached lengths kept — and a later path
	// query rebuilds tracked state through the single-flight path.
	provBytes int64
	// Tier counters and the compaction before/after record of the most
	// recent Warm (all guarded by mu; they are only written under it).
	provenanceEvictions int64
	provenanceRebuilds  int64
	provRawBytes        int64
	provCompactedBytes  int64
	// rebuildRejects counts rebuild attempts turned away by rebuildSem
	// (an atomic: it is bumped after mu is released).
	rebuildRejects atomic.Int64
}

// StageTimes is the per-stage latency breakdown of one §8 batch solve
// (the pipeline Warm runs). Every stage is wall time summed over its
// items — sources for build/enumeration/assembly, centers for the
// §8.2.2 stage — the measure that stays comparable at any parallelism;
// the seed merge is one sequential fold, timed once.
// Serving front-ends use the build-side numbers to inform load
// shedding with measured latency rather than a static cap.
type StageTimes struct {
	// PerSourceBuild covers the §7.1 small-near builds and the §8.1
	// center rows.
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
// counters, and the one declaration of the oracle's /v1/stats metrics:
// each wire field carries its JSON name and a stat tag, and
// internal/metrics applies the tags across a fleet and across a load
// wave. The kinds:
//
//   - counter: only grows; sums across replicas, subtracts across a wave.
//   - gauge: a current reading that can fall (ProvenanceBytes, and the
//     last warm's plane sizes, which each replica takes over its own
//     slice); sums across replicas, read at wave end.
//   - peak: a high-water mark or a last-warm latency; the max across
//     replicas, read at wave end.
//   - rate: derived from counters (server.StatsResponse).
//
// The time.Duration fields stay off the wire; their *Millis twins carry
// them in fractional milliseconds.
type OracleStats struct {
	// Hits and Misses count per-source cache lookups on the query path.
	// A miss either triggers a build or joins one already in flight.
	Hits   int64 `json:"hits" stat:"counter"`
	Misses int64 `json:"misses" stat:"counter"`
	// Builds counts lazy per-source materializations; BuildTime is
	// their summed wall clock (divide for the mean per-source build
	// latency).
	Builds          int64         `json:"builds" stat:"counter"`
	BuildTime       time.Duration `json:"-"`
	BuildTimeMillis float64       `json:"buildTimeMillis" stat:"counter"`
	// Evictions counts sources dropped by the MaxCachedSources LRU.
	Evictions int64 `json:"evictions" stat:"counter"`
	// Batches and BatchQueries describe QueryBatch traffic (divide for
	// the mean batch size).
	Batches      int64 `json:"batches" stat:"counter"`
	BatchQueries int64 `json:"batchQueries" stat:"counter"`
	// Warms counts Warm calls that ran the batch §8 pipeline to
	// successful completion (joiners of an in-flight warm and warms that
	// errored or were cancelled do not count).
	Warms int64 `json:"warms" stat:"counter"`
	// Rejections counts requests turned away by admission control (a
	// serving front-end reporting 429 via RecordRejection).
	Rejections int64 `json:"rejections" stat:"counter"`
	// Cancellations counts QueryBatchContext/WarmContext calls that
	// returned early because their context was cancelled.
	Cancellations int64 `json:"cancellations" stat:"counter"`
	// ProvenanceBytes is the retained footprint of the path-provenance
	// plane under Options.TrackPaths — what tracking keeps alive that a
	// length-only oracle would have dropped. Lazy builds contribute per
	// cached entry (witness snapshot + Value-lookup plane + answer
	// provenance + witnesses); a completed Warm compacts its shared §8
	// plane into self-contained per-source records and contributes those
	// per entry too. Either way an entry's provenance is freed by LRU
	// eviction or by a MaxProvenanceBytes budget strip, so the gauge
	// tracks memory that can actually be reclaimed and never exceeds the
	// budget. 0 on untracked oracles.
	ProvenanceBytes int64 `json:"provenanceBytes" stat:"gauge"`
	// ProvenanceEvictions counts sources whose provenance was dropped by
	// the MaxProvenanceBytes budget. The source's lengths stay cached
	// and keep serving; only path expansion requires a rebuild.
	ProvenanceEvictions int64 `json:"provenanceEvictions" stat:"counter"`
	// ProvenanceRebuilds counts on-demand tracked rebuilds triggered by
	// a path query against a source whose provenance had been evicted.
	ProvenanceRebuilds int64 `json:"provenanceRebuilds" stat:"counter"`
	// ProvenanceRebuildRejects counts rebuild attempts turned away by
	// Options.MaxProvenanceRebuilds admission (ErrRebuildSaturated) —
	// the thundering herd the bound absorbed.
	ProvenanceRebuildRejects int64 `json:"provenanceRebuildRejects" stat:"counter"`
	// ProvenanceRawBytes and ProvenanceCompactedBytes record the most
	// recent completed Warm's provenance plane before and after
	// post-solve compaction (zero before any tracked warm; compacted
	// stays zero if compaction failed and the warm's entries were
	// installed lengths-only).
	ProvenanceRawBytes       int64 `json:"provenanceRawBytes" stat:"gauge"`
	ProvenanceCompactedBytes int64 `json:"provenanceCompactedBytes" stat:"gauge"`
	// WarmStages is the stage-latency breakdown of the most recent
	// completed Warm pipeline (zero before any warm completes).
	WarmStages                    StageTimes `json:"-"`
	WarmStageBuildMillis          float64    `json:"warmStageBuildMillis" stat:"peak"`
	WarmStageSeedEnumerateMillis  float64    `json:"warmStageSeedEnumerateMillis" stat:"peak"`
	WarmStageSeedMergeMillis      float64    `json:"warmStageSeedMergeMillis" stat:"peak"`
	WarmStageCenterLandmarkMillis float64    `json:"warmStageCenterLandmarkMillis" stat:"peak"`
	WarmStageAssemblyMillis       float64    `json:"warmStageAssemblyMillis" stat:"peak"`
	// WarmPeakSeedPathBytes is that pipeline's high-water mark of live
	// §7.1 path-expansion state — Θ(Parallelism·aux), because each
	// source's state is released as soon as its seed shard is
	// enumerated.
	WarmPeakSeedPathBytes int64 `json:"warmPeakSeedPathBytes" stat:"peak"`
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
	w := o.warmStages
	st := OracleStats{
		ProvenanceBytes:               o.provBytes,
		ProvenanceEvictions:           o.provenanceEvictions,
		ProvenanceRebuilds:            o.provenanceRebuilds,
		ProvenanceRawBytes:            o.provRawBytes,
		ProvenanceCompactedBytes:      o.provCompactedBytes,
		WarmStages:                    w,
		WarmStageBuildMillis:          millis(w.PerSourceBuild),
		WarmStageSeedEnumerateMillis:  millis(w.SeedEnumerate),
		WarmStageSeedMergeMillis:      millis(w.SeedMerge),
		WarmStageCenterLandmarkMillis: millis(w.CenterLandmark),
		WarmStageAssemblyMillis:       millis(w.Assembly),
		WarmPeakSeedPathBytes:         o.warmPeakSeedBytes,
	}
	o.mu.Unlock()
	st.ProvenanceRebuildRejects = o.rebuildRejects.Load()
	st.Hits = o.hits.Load()
	st.Misses = o.misses.Load()
	st.Builds = o.builds.Load()
	st.BuildTime = time.Duration(o.buildNanos.Load())
	st.BuildTimeMillis = millis(st.BuildTime)
	st.Evictions = o.evictions.Load()
	st.Batches = o.batches.Load()
	st.BatchQueries = o.batchQueries.Load()
	st.Warms = o.warms.Load()
	st.Rejections = o.rejections.Load()
	st.Cancellations = o.cancellations.Load()
	return st
}

// millis converts a duration to fractional milliseconds for the wire.
func millis(d time.Duration) float64 {
	return float64(d.Nanoseconds()) / 1e6
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

// entry is one cached source: its element in Oracle.lru, and in
// Oracle.prov while it holds provenance (nil once stripped, and for
// untracked or lengths-only entries).
type entry struct {
	s         int
	res       *Result
	provBytes int64 // provenance footprint, for the gauge
	lru, prov *list.Element
}

// flight is one in-flight build or Warm shared by every concurrent
// caller (single-flight): the leader sets res or err, then closes done.
type flight struct {
	done chan struct{}
	res  *Result
	err  error
}

func newFlight() *flight { return &flight{done: make(chan struct{})} }

// wait blocks until the flight lands or ctx is done; a joiner that
// detaches with ctx.Err() leaves the flight running for everyone else.
func (f *flight) wait(ctx context.Context) error {
	select {
	case <-f.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
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
		compact:  (*msrpcore.Solution).CompactProvenance,
		cache:    make(map[int]*entry, len(sources)),
		inflight: make(map[int]*flight),
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
		_, _ = o.result(ctx, sources[i], false) // validated above; err is only ctx
	})
	if err != nil {
		o.cancellations.Add(1)
	}
	return err
}

// Query answers a single replacement-path question; s must be one of
// the oracle's sources. Safe for concurrent use.
func (o *Oracle) Query(s, t, u, v int) (int32, error) {
	res, err := o.result(context.Background(), s, false)
	if err != nil {
		return 0, err
	}
	return res.AvoidEdge(t, u, v)
}

// QueryBatch answers a batch of queries, one Answer per Query in
// order. Sources that are not yet materialized are built concurrently
// (sharded across the engine pool), each exactly once even under
// concurrent batches. When rebuild admission turns away a
// budget-stripped source, only its path items carry
// ErrRebuildSaturated; its length items are answered from the cached
// entry. Safe for concurrent use.
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

	// Group the batch by source with a scan, keeping first-seen order:
	// at[i] is query i's position in srcs (-1 when its source is not an
	// oracle source). A source needs provenance present when any of its
	// queries asks for paths (a path query against a budget-stripped
	// source rebuilds it).
	type batchSource struct {
		s     int
		paths bool
		res   *Result
		err   error
	}
	srcs := make([]batchSource, 0, min(len(queries), len(o.sources)))
	at := make([]int, len(queries))
	for i, q := range queries {
		if !o.isSource[q.Source] {
			answers[i].Err = notSourceError(q.Source)
			at[i] = -1
			continue
		}
		k := 0
		for k < len(srcs) && srcs[k].s != q.Source {
			k++
		}
		if k == len(srcs) {
			srcs = append(srcs, batchSource{s: q.Source})
		}
		srcs[k].paths = srcs[k].paths || q.Paths
		at[i] = k
	}

	// Serve cache hits inline, in first-seen order, and fan the batch
	// out only from its first miss on: each per-source build is
	// sequential, so the batch's parallelism is across sources. At
	// Parallelism 1 the fan-out runs in order too, so the cache sees
	// the batch's sources in first-seen order either way.
	hits := 0
	for hits < len(srcs) {
		if srcs[hits].res = o.hit(srcs[hits].s, srcs[hits].paths); srcs[hits].res == nil {
			break
		}
		hits++
	}
	if rest := srcs[hits:]; len(rest) > 0 {
		err := o.pool.RunCtx(ctx, len(rest), func(i int) {
			rest[i].res, rest[i].err = o.result(ctx, rest[i].s, rest[i].paths)
		})
		if err != nil {
			o.cancellations.Add(1)
			return nil, err
		}
	}

	for i, q := range queries {
		if at[i] < 0 {
			continue
		}
		src := &srcs[at[i]]
		// A rebuild turned away by admission (ErrRebuildSaturated)
		// still returns the stripped entry: its length items are
		// answered, its path items carry the error.
		if src.err != nil && q.Paths {
			answers[i].Err = src.err
			continue
		}
		// One edge resolution serves both the length lookup and the
		// optional path expansion.
		idx, err := src.res.pathEdgeIndex(q.Target, q.U, q.V)
		if err != nil {
			answers[i].Err = err
			continue
		}
		answers[i].Length = src.res.res.Len[q.Target][idx]
		if q.Paths && answers[i].Length != NoPath {
			answers[i].Path, answers[i].Err = src.res.ReplacementPath(q.Target, idx)
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
	res, err := o.result(context.Background(), s, true)
	if err != nil {
		return nil, err
	}
	return res.ReplacementPathForEdge(t, u, v)
}

// Result returns the full per-source result, materializing it if
// needed, or nil when s is not an oracle source. Safe for concurrent
// use. The result stays valid even after the LRU evicts it. On a
// tracked oracle, a source whose provenance the MaxProvenanceBytes
// budget stripped returns its cached lengths-only Result, whose path
// expansion reports ErrPathsNotTracked; QueryPath rebuilds the
// provenance instead.
func (o *Oracle) Result(s int) *Result {
	res, err := o.result(context.Background(), s, false)
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
		if f := o.warming; f != nil {
			o.mu.Unlock()
			if err := f.wait(ctx); err != nil {
				o.cancellations.Add(1)
				return err
			}
			// If the leader's run died of its *own* context (not ours —
			// ours is checked at the top of the loop), the failure says
			// nothing about our request: retry, becoming the leader if
			// the slot is still free.
			if errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded) {
				continue
			}
			return f.err
		}
		f := newFlight()
		o.warming = f
		o.mu.Unlock()

		sol, err := msrpcore.SolveSharedContext(ctx, o.sh)

		// Compact the provenance plane before anything is published: the
		// solution is still private to this goroutine (outside the
		// oracle lock, so queries keep flowing during the re-walk).
		// Compaction replaces the shared §8 plane — parent chains, seed
		// table, center forest, whose explain reach made warm provenance
		// one immortal unit — with self-contained per-source records
		// that the LRU and the byte budget can free individually. If it
		// fails, the warm's entries are installed lengths-only and the
		// raw plane is dropped: path queries rebuild them like any
		// budget-stripped entry.
		var rawProvBytes int64
		compacted := false
		if err == nil && sol.Prov != nil {
			rawProvBytes = sol.Stats.ProvenanceBytes
			compacted = o.compact(sol) == nil
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
			o.provRawBytes = rawProvBytes
			if compacted {
				o.provCompactedBytes = solveStats.ProvenanceBytes
			}
			for i, s := range o.sources {
				if o.cache[s] != nil {
					continue
				}
				res := wrapResult(o.g.g, sol.Results[i])
				var pb int64
				if compacted {
					res.ps = sol.PerSource[i]
					pb = res.ProvenanceBytes() + sol.Compact[i].Bytes()
				}
				o.putLocked(s, res, pb)
			}
		}
		o.warming = nil
		o.mu.Unlock()
		if err != nil && ctx.Err() != nil {
			o.cancellations.Add(1)
		}
		f.err = err
		close(f.done)
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
// once across concurrent callers (single-flight).
//
// With paths set on a tracked oracle the result must carry provenance:
// a cached entry without it (budget-stripped, or installed
// lengths-only by a Warm whose compaction failed) is rebuilt through
// the same flight a cold miss uses, under rebuildSem admission. When
// admission turns the rebuild away, the cached lengths-only Result
// comes back alongside ErrRebuildSaturated, so a batch still answers
// that source's length items. Otherwise a nil Result comes only with
// ErrNotSource or ctx's error.
//
// Cancellation boundary: ctx is observed before starting or joining a
// build — never during one. A build that has started always runs to
// completion and is cached, so the LRU can never hold partial state
// and single-flight joiners always receive a complete result; a joiner
// whose ctx cancels mid-wait detaches with ctx.Err() while the build
// continues for everyone else.
func (o *Oracle) result(ctx context.Context, s int, paths bool) (*Result, error) {
	if !o.isSource[s] {
		return nil, notSourceError(s)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	paths = paths && o.opts.TrackPaths
	o.mu.Lock()
	if res := o.hitLocked(s, paths); res != nil {
		o.mu.Unlock()
		return res, nil
	}
	e := o.cache[s]
	if f := o.inflight[s]; f != nil {
		// Every build on a tracked oracle is tracked and its flight
		// serves it with provenance, so joining answers paths too.
		o.mu.Unlock()
		o.misses.Add(1)
		if err := f.wait(ctx); err != nil {
			return nil, err
		}
		return f.res, nil
	}
	rebuild := e != nil // cached, but without the provenance paths need
	if rebuild && o.rebuildSem != nil {
		// Admission for on-demand rebuilds: each one is a full
		// per-source solve that only exists because the entry holds no
		// provenance, so a storm of them must not stack unbounded
		// solves behind the serving tier's back. The acquire is
		// non-blocking (never queue): over the limit the query fails
		// fast with ErrRebuildSaturated and the caller backs off with a
		// derived Retry-After.
		select {
		case o.rebuildSem <- struct{}{}:
		default:
			res := e.res
			o.mu.Unlock()
			o.rebuildRejects.Add(1)
			return res, rebuildSaturatedError(s)
		}
	}
	f := newFlight()
	o.inflight[s] = f
	o.mu.Unlock()
	o.misses.Add(1)
	if rebuild {
		n := o.rebuildActive.Add(1)
		for {
			p := o.rebuildPeak.Load()
			if n <= p || o.rebuildPeak.CompareAndSwap(p, n) {
				break
			}
		}
	}

	built := o.build(int32(s))

	if rebuild {
		o.rebuildActive.Add(-1)
		if o.rebuildSem != nil {
			<-o.rebuildSem
		}
	}

	o.mu.Lock()
	if e := o.cache[s]; e != nil && (e.res.ps != nil || built.ps == nil) {
		// A concurrent Warm landed while we were building and its entry
		// is at least as complete: serve it and drop our build.
		o.touchLocked(e, paths)
		f.res = e.res
	} else {
		// Cache the build, replacing a lengths-only entry's Result
		// wholesale so an entry's lengths and paths always come from one
		// build. f.res is taken before the budget is enforced, so this
		// flight serves its paths even if the entry is stripped at once.
		f.res = built
		o.putLocked(s, built, built.ProvenanceBytes())
	}
	if rebuild {
		o.provenanceRebuilds++
	}
	delete(o.inflight, s)
	o.mu.Unlock()
	close(f.done)
	return f.res, nil
}

// hit returns s's cached Result when it can serve the batch as is (with
// provenance, if paths asks for it on a tracked oracle), counting the
// hit and touching the entry; nil otherwise, counting nothing.
func (o *Oracle) hit(s int, paths bool) *Result {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.hitLocked(s, paths && o.opts.TrackPaths)
}

// hitLocked is hit for callers that hold o.mu and have already masked
// paths with Options.TrackPaths.
func (o *Oracle) hitLocked(s int, paths bool) *Result {
	e := o.cache[s]
	if e == nil || (paths && e.res.ps == nil) {
		return nil
	}
	o.touchLocked(e, paths)
	o.hits.Add(1)
	return e.res
}

// build materializes one source against the shared preprocessing: the
// §7.1 small-near graph, exact landmark replacement lengths via the
// classical algorithm (one pass over T_s), and the per-target combine.
// Deterministic in (graph, source set, options) alone. Under
// Options.TrackPaths the build also records the provenance plane (the
// witness snapshot and the classic crossing-edge witnesses), so the
// result expands paths; lengths are unchanged.
func (o *Oracle) build(s int32) *Result {
	start := time.Now()
	r, ps := o.sh.SolveSource(s, o.opts.TrackPaths, nil)
	res := wrapResult(o.g.g, r)
	if ps.TrackPaths {
		res.ps = ps
	}
	o.builds.Add(1)
	o.buildNanos.Add(int64(time.Since(start)))
	return res
}

// putLocked caches res as s's entry at the front of lru, and of prov
// when provBytes (the provenance an eviction or strip of it frees) is
// nonzero. s must be uncached or cached without provenance. Entries
// beyond MaxCachedSources are evicted from the back of lru, then the
// byte budget is enforced — so the gauge never exceeds
// MaxProvenanceBytes, even transiently. Callers hold o.mu.
func (o *Oracle) putLocked(s int, res *Result, provBytes int64) {
	e := o.cache[s]
	if e == nil {
		e = &entry{s: s}
		e.lru = o.lru.PushFront(e)
		o.cache[s] = e
	} else {
		o.lru.MoveToFront(e.lru)
	}
	e.res, e.provBytes = res, provBytes
	o.provBytes += provBytes
	if provBytes > 0 {
		e.prov = o.prov.PushFront(e)
	}
	if max := o.opts.MaxCachedSources; max > 0 {
		for o.lru.Len() > max {
			victim := o.lru.Remove(o.lru.Back()).(*entry)
			if victim.prov != nil {
				o.prov.Remove(victim.prov)
			}
			delete(o.cache, victim.s)
			o.provBytes -= victim.provBytes
			o.evictions.Add(1)
		}
	}
	o.enforceProvBudgetLocked()
}

// enforceProvBudgetLocked strips least-recently-path-queried entries
// until the gauge fits MaxProvenanceBytes (0 = unlimited). A stripped
// entry keeps its cached lengths: its Result is replaced by a ps-free
// copy — never mutated in place, because concurrent query callers may
// hold the original, whose path expansion must keep working. A single
// over-budget entry is stripped too — the budget is a hard bound, not
// advisory; the caller that triggered the insert still holds the
// unstripped Result and serves its paths. Callers hold o.mu.
func (o *Oracle) enforceProvBudgetLocked() {
	max := o.opts.MaxProvenanceBytes
	for max > 0 && o.provBytes > max {
		e := o.prov.Remove(o.prov.Back()).(*entry)
		stripped := *e.res
		stripped.ps = nil
		e.res, e.prov = &stripped, nil
		o.provBytes -= e.provBytes
		e.provBytes = 0
		o.provenanceEvictions++
	}
}

// touchLocked moves e to the front of lru and, for a path query, of
// prov (the byte budget strips by path-query recency). Callers hold
// o.mu.
func (o *Oracle) touchLocked(e *entry, paths bool) {
	o.lru.MoveToFront(e.lru)
	if paths && e.prov != nil {
		o.prov.MoveToFront(e.prov)
	}
}
