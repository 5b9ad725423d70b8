// Package server is the HTTP serving front-end over msrp.Oracle: a
// JSON batch endpoint backed by Oracle.QueryBatchContext, a warm
// endpoint over the §8 batch pipeline, a stats scrape, and a health
// probe. It is the network face the ROADMAP's "production-scale
// server" north star asks for.
//
// Endpoints:
//
//	POST /v1/query   {"queries":[{"source":s,"target":t,"u":u,"v":v},…]}
//	                 → {"answers":[{"length":l,"noPath":…,"error":…},…]}
//	POST /v1/warm    run the Theorem 1 batch pipeline over every source,
//	                 or — with a {"sources":[…]} body — materialize just
//	                 that slice via the per-source build path
//	GET  /v1/sources the source set and which sources are cached now
//	GET  /v1/stats   Oracle.Stats() + derived rates as JSON
//	GET  /healthz    liveness probe
//
// Admission control: at most Config.MaxInFlight /v1/query requests and
// Config.MaxWarms /v1/warm pipelines run at once; excess requests get
// 429 with a Retry-After header (never queued — the caller owns the
// backoff), counted in Oracle.Stats().Rejections. The request context
// is plumbed into the oracle, so a client that disconnects or times
// out cancels its batch between per-source builds and frees the slot
// promptly, with the cache left consistent for the next caller.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"msrp"
)

// Config tunes the front-end's admission control. The zero value
// derives sensible bounds from the oracle (see the field docs).
type Config struct {
	// MaxInFlight bounds concurrently served /v1/query requests — the
	// in-flight query budget. 0 derives the bound from the oracle's
	// options: 2×MaxCachedSources when the LRU is bounded (admission
	// then tracks what was sized to fit in memory, per the σ·n² concern
	// in the ROADMAP), else 4×GOMAXPROCS. Negative disables the bound.
	MaxInFlight int

	// MaxWarms bounds concurrent /v1/warm pipeline runs. Each warm is a
	// σn² build, so the default (0) allows exactly 1; the Oracle
	// single-flights concurrent warms anyway, and rejecting instead of
	// queueing keeps the probe endpoints responsive. Negative disables
	// the bound.
	MaxWarms int

	// RetryAfter is the backoff advertised in the Retry-After header of
	// 429 responses. 0 (the default) derives it per rejection from the
	// oracle's measured build latencies — the most recent Warm
	// pipeline's stage breakdown, falling back to the lazy-build
	// average — via DeriveRetryAfter; a positive value pins a constant.
	RetryAfter time.Duration

	// MaxBodyBytes caps the /v1/query request body (http.MaxBytesReader).
	// 0 means 8 MiB; negative disables the cap.
	MaxBodyBytes int64

	// MaxPathVertices caps the total number of path vertices one
	// /v1/query response may carry. The "paths": true expansions are
	// granted in request order with prefix semantics: the first path
	// that does not fit exhausts the budget, and it plus every later
	// path-requesting answer keeps its length but reports pathError
	// instead of a path — so a client resumes from the first pathError.
	// 0 means 131072 vertices (≈ 1 MiB of JSON); negative disables the
	// cap.
	MaxPathVertices int
}

// Server is an http.Handler serving one Oracle. Construct with New.
type Server struct {
	oracle *msrp.Oracle
	mux    *http.ServeMux

	retryAfter   string        // preformatted Retry-After value ("" = derive)
	maxBody      int64         // /v1/query body cap (0 = uncapped)
	maxPathVerts int           // per-response path-vertex budget (0 = uncapped)
	numSources   int           // cached σ (the oracle's source set is immutable)
	queries      chan struct{} // in-flight /v1/query slots (nil = unbounded)
	warms        chan struct{} // in-flight /v1/warm slots (nil = unbounded)
	draining     atomic.Bool   // /healthz reports 503 while set (graceful drain)
}

// SetDraining flips the drain flag reported by /healthz. A front-end
// beginning a graceful shutdown sets it the moment drain starts — before
// the listener closes — so a load balancer polling /healthz stops
// routing new traffic to this replica while its in-flight requests
// complete. The query/warm/stats endpoints are unaffected: already-
// routed requests are served normally for the whole drain window.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Draining reports whether the server is in its drain window.
func (s *Server) Draining() bool { return s.draining.Load() }

// New wraps the oracle in an HTTP front-end with the given admission
// configuration.
func New(o *msrp.Oracle, cfg Config) *Server {
	maxInFlight := cfg.MaxInFlight
	if maxInFlight == 0 {
		if max := o.Options().MaxCachedSources; max > 0 {
			maxInFlight = 2 * max
		} else {
			maxInFlight = 4 * runtime.GOMAXPROCS(0)
		}
	}
	maxWarms := cfg.MaxWarms
	if maxWarms == 0 {
		maxWarms = 1
	}
	maxBody := cfg.MaxBodyBytes
	if maxBody == 0 {
		maxBody = 8 << 20
	} else if maxBody < 0 {
		maxBody = 0
	}
	maxPathVerts := cfg.MaxPathVertices
	if maxPathVerts == 0 {
		maxPathVerts = 128 << 10
	} else if maxPathVerts < 0 {
		maxPathVerts = 0
	}
	s := &Server{
		oracle:       o,
		mux:          http.NewServeMux(),
		maxBody:      maxBody,
		maxPathVerts: maxPathVerts,
		numSources:   len(o.Sources()),
	}
	if cfg.RetryAfter > 0 {
		s.retryAfter = formatRetryAfter(cfg.RetryAfter)
	}
	if maxInFlight > 0 {
		s.queries = make(chan struct{}, maxInFlight)
	}
	if maxWarms > 0 {
		s.warms = make(chan struct{}, maxWarms)
	}
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/warm", s.handleWarm)
	s.mux.HandleFunc("GET /v1/sources", s.handleSources)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// acquire takes one slot off sem without blocking. A nil sem is
// unbounded. The returned release func is nil when the slot was not
// granted.
func acquire(sem chan struct{}) (release func(), ok bool) {
	if sem == nil {
		return func() {}, true
	}
	select {
	case sem <- struct{}{}:
		return func() { <-sem }, true
	default:
		return nil, false
	}
}

// reject emits a 429 and records the rejection on the oracle's stats.
// The Retry-After header is the configured constant when one was
// pinned, else derived per rejection from the oracle's measured build
// latencies (the load-shedding decision the ROADMAP wanted driven by
// measurements rather than a static default).
func (s *Server) reject(w http.ResponseWriter, what string) {
	s.oracle.RecordRejection()
	retry := s.retryAfter
	if retry == "" {
		retry = formatRetryAfter(DeriveRetryAfter(s.oracle.Stats(), s.numSources))
	}
	w.Header().Set("Retry-After", retry)
	writeJSON(w, http.StatusTooManyRequests, map[string]string{
		"error": what + " capacity exhausted; retry later",
	})
}

// DeriveRetryAfter converts an oracle's measured latencies into the
// backoff a rejected caller should observe — an estimate of how long a
// capacity slot takes to free. Preference order:
//
//  1. The most recent Warm pipeline's stage breakdown: the per-source
//     stages (build, seed enumeration, assembly) divided by σ — they
//     are wall time summed over sources — plus the barriered merge and
//     center stages at full weight. This is the serving-path
//     measurement the stage-latency plumbing exists for.
//  2. The lazy-build average (AvgBuildLatency) before any warm has
//     completed.
//  3. One second when nothing has been measured yet.
//
// The estimate is clamped to [1s, 30s]: the floor keeps the header
// meaningful for sub-second builds, the ceiling keeps a pathological
// measurement from parking clients.
func DeriveRetryAfter(st msrp.OracleStats, sources int) time.Duration {
	var est time.Duration
	if sources > 0 {
		w := st.WarmStages
		est = (w.PerSourceBuild+w.SeedEnumerate+w.Assembly)/time.Duration(sources) +
			w.SeedMerge + w.CenterLandmark
	}
	if est <= 0 {
		est = st.AvgBuildLatency()
	}
	if est < time.Second {
		return time.Second
	}
	if est > 30*time.Second {
		return 30 * time.Second
	}
	return est
}

// formatRetryAfter renders a duration as the header's whole seconds,
// rounding up.
func formatRetryAfter(d time.Duration) string {
	return fmt.Sprintf("%d", int((d+time.Second-1)/time.Second))
}

// QueryItem is one replacement-path question on the wire: the length
// of the shortest source→target path avoiding the edge {u, v}. With
// "paths": true the answer also carries the concrete replacement path
// (the oracle must serve with TrackPaths, else the item gets a 400-
// mapped error), subject to the response's path-vertex budget.
type QueryItem struct {
	Source int  `json:"source"`
	Target int  `json:"target"`
	U      int  `json:"u"`
	V      int  `json:"v"`
	Paths  bool `json:"paths,omitempty"`
}

// QueryRequest is the /v1/query request body. DeadlineMillis, when
// positive, is a server-side compute budget for the whole batch: the
// handler enforces it with a context deadline, so a batch that blows
// its budget is abandoned by the *replica* (504), not just by a client
// that has already hung up. A routing tier sets it to its remaining
// per-item budget so a stalled or overloaded replica stops burning
// capacity on answers nobody is still waiting for.
type QueryRequest struct {
	Queries        []QueryItem `json:"queries"`
	DeadlineMillis int64       `json:"deadlineMillis,omitempty"`
}

// AnswerItem is one answer on the wire. NoPath marks the avoided edge
// as a bridge (Length is then meaningless); Error marks a malformed
// query (unknown source, missing edge, edge off the canonical path, or
// paths requested from an untracked oracle). Path is the replacement
// path's vertex sequence when the item requested it: a certificate —
// a real walk in G−e of exactly Length edges. PathError is set instead
// of Path when the response's path-vertex budget ran out at or before
// this item (its Length is still valid); granted paths are always a
// prefix of the requested ones, so a client resumes from the first
// pathError.
type AnswerItem struct {
	Length    int32   `json:"length"`
	NoPath    bool    `json:"noPath,omitempty"`
	Path      []int32 `json:"path,omitempty"`
	PathError string  `json:"pathError,omitempty"`
	Error     string  `json:"error,omitempty"`
	// RouteError is set only by the routing tier (internal/router): the
	// item could not be answered by any replica within its budget (all
	// other fields are then meaningless). A replica never sets it. It is
	// declared here so routed and direct responses share one wire shape.
	RouteError string `json:"routeError,omitempty"`
}

// QueryResponse is the /v1/query response body. Answers align with the
// request's queries by index. Error is set on request-level failures
// (bad source, cancelled batch) alongside the appropriate status code.
type QueryResponse struct {
	Answers []AnswerItem `json:"answers,omitempty"`
	Error   string       `json:"error,omitempty"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	// Read the body before taking an admission slot: a client trickling
	// (or streaming gigabytes of) request body must not pin the
	// in-flight budget while it does so. The cap bounds memory; the
	// slot is held only for the compute.
	if s.maxBody > 0 {
		r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	}
	var req QueryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			// 413, not a generic decode 400 — and tell the client the
			// actual cap so it can split the batch instead of guessing.
			writeJSON(w, http.StatusRequestEntityTooLarge, struct {
				Error        string `json:"error"`
				MaxBodyBytes int64  `json:"maxBodyBytes"`
			}{
				Error:        fmt.Sprintf("request body exceeds the %d-byte cap; split the batch", s.maxBody),
				MaxBodyBytes: s.maxBody,
			})
			return
		}
		writeJSON(w, http.StatusBadRequest, QueryResponse{Error: "bad request body: " + err.Error()})
		return
	}
	// Cheap-reject garbage before admission: an empty batch must not
	// consume an in-flight slot on its way to a 400, or a flood of them
	// starves real queries of budget.
	if len(req.Queries) == 0 {
		writeJSON(w, http.StatusBadRequest, QueryResponse{Error: `empty batch: "queries" must contain at least one item`})
		return
	}
	if req.DeadlineMillis < 0 {
		writeJSON(w, http.StatusBadRequest, QueryResponse{Error: "deadlineMillis must be non-negative"})
		return
	}

	release, ok := acquire(s.queries)
	if !ok {
		s.reject(w, "query")
		return
	}
	defer release()

	queries := make([]msrp.Query, len(req.Queries))
	for i, q := range req.Queries {
		queries[i] = msrp.Query{Source: q.Source, Target: q.Target, U: q.U, V: q.V, Paths: q.Paths}
	}
	// Per-batch deadline enforcement: the caller's declared budget is a
	// context deadline on the oracle work, so the replica itself abandons
	// a batch the caller has given up on instead of computing into the
	// void. The engine observes the context between per-source builds.
	ctx := r.Context()
	if req.DeadlineMillis > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.DeadlineMillis)*time.Millisecond)
		defer cancel()
	}
	answers, err := s.oracle.QueryBatchContext(ctx, queries)
	if err != nil {
		// The declared budget expiring is the replica's own verdict —
		// 504, the signal a router maps to a per-item deadline miss.
		// Anything else is the client timing out or disconnecting; 503
		// tells any intermediary the work was shed.
		if errors.Is(err, context.DeadlineExceeded) && r.Context().Err() == nil {
			writeJSON(w, http.StatusGatewayTimeout, QueryResponse{Error: "batch deadline exceeded: " + err.Error()})
			return
		}
		writeJSON(w, http.StatusServiceUnavailable, QueryResponse{Error: "batch cancelled: " + err.Error()})
		return
	}

	resp := QueryResponse{Answers: make([]AnswerItem, len(answers))}
	status := http.StatusOK
	saturated := false
	pathBudget := s.maxPathVerts
	for i, a := range answers {
		switch {
		case a.Err != nil:
			resp.Answers[i].Error = a.Err.Error()
			// The sentinels (not string matching) decide the status: a
			// query for a vertex outside the oracle's source set — or
			// for paths this deployment does not track — is a client
			// error, not an empty result. Rebuild saturation is neither:
			// it is admission control, surfaced below as the 429 it is.
			if errors.Is(a.Err, msrp.ErrRebuildSaturated) {
				saturated = true
			} else if errors.Is(a.Err, msrp.ErrNotSource) || errors.Is(a.Err, msrp.ErrPathsNotTracked) {
				status = http.StatusBadRequest
				if resp.Error == "" {
					resp.Error = a.Err.Error()
				}
			}
		case a.Length == msrp.NoPath:
			resp.Answers[i].NoPath = true
		default:
			resp.Answers[i].Length = a.Length
			if a.Path == nil {
				break
			}
			// Paths are granted in request order against one response-
			// wide vertex budget, with prefix semantics: the first path
			// that does not fit exhausts the budget, so granted paths
			// are exactly a prefix of the requested ones and a client
			// can resume from the first pathError. A skipped item keeps
			// its length.
			if s.maxPathVerts > 0 && len(a.Path) > pathBudget {
				pathBudget = 0
				resp.Answers[i].PathError = "path vertex budget exceeded; re-request paths from this item on"
				continue
			}
			pathBudget -= len(a.Path)
			resp.Answers[i].Path = a.Path
		}
	}
	// A batch that hit rebuild admission gets the same 429 + derived
	// Retry-After contract as front-door admission: the caller backs
	// off and retries — by then the in-flight rebuilds have landed (a
	// cache hit) or a slot has freed. A malformed batch stays a 400;
	// the saturated items' per-item errors still say what happened.
	if saturated && status == http.StatusOK {
		s.oracle.RecordRejection()
		retry := s.retryAfter
		if retry == "" {
			retry = formatRetryAfter(DeriveRetryAfter(s.oracle.Stats(), s.numSources))
		}
		w.Header().Set("Retry-After", retry)
		status = http.StatusTooManyRequests
		if resp.Error == "" {
			resp.Error = "provenance rebuild capacity exhausted; retry later"
		}
	}
	writeJSON(w, status, resp)
}

// WarmRequest is the optional /v1/warm request body. An empty body (the
// original wire contract) warms every source via the §8 batch pipeline;
// a non-empty Sources list materializes just that slice via the
// per-source build path (Oracle.WarmSources) — the form a router uses
// to pre-build each replica's hash slice without paying for σ.
type WarmRequest struct {
	Sources []int `json:"sources"`
}

// WarmResponse is the /v1/warm response body. Warmed is the size of the
// requested slice on slice warms (0 on full warms). StaleReplicas is
// set only by the routing tier: how many serving members could not be
// scraped for the CachedSources sum, which is then a partial total
// rather than an error.
type WarmResponse struct {
	CachedSources int    `json:"cachedSources"`
	StaleReplicas int    `json:"staleReplicas,omitempty"`
	Warmed        int    `json:"warmed,omitempty"`
	Error         string `json:"error,omitempty"`
}

func (s *Server) handleWarm(w http.ResponseWriter, r *http.Request) {
	// The body is read before admission for the same reason /v1/query's
	// is: a trickling client must not pin the warm budget.
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, WarmResponse{Error: "bad request body: " + err.Error()})
		return
	}
	var wreq WarmRequest
	if len(bytes.TrimSpace(body)) > 0 {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&wreq); err != nil {
			writeJSON(w, http.StatusBadRequest, WarmResponse{Error: "bad warm body: " + err.Error()})
			return
		}
	}

	release, ok := acquire(s.warms)
	if !ok {
		s.reject(w, "warm")
		return
	}
	defer release()

	if len(wreq.Sources) > 0 {
		if err := s.oracle.WarmSources(r.Context(), wreq.Sources); err != nil {
			status := http.StatusInternalServerError
			switch {
			case errors.Is(err, msrp.ErrNotSource):
				status = http.StatusBadRequest
			case r.Context().Err() != nil:
				status = http.StatusServiceUnavailable
			}
			writeJSON(w, status, WarmResponse{
				CachedSources: s.oracle.CachedSources(),
				Error:         err.Error(),
			})
			return
		}
		writeJSON(w, http.StatusOK, WarmResponse{
			CachedSources: s.oracle.CachedSources(),
			Warmed:        len(wreq.Sources),
		})
		return
	}

	if err := s.oracle.WarmContext(r.Context()); err != nil {
		status := http.StatusInternalServerError
		if r.Context().Err() != nil {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, WarmResponse{
			CachedSources: s.oracle.CachedSources(),
			Error:         err.Error(),
		})
		return
	}
	writeJSON(w, http.StatusOK, WarmResponse{CachedSources: s.oracle.CachedSources()})
}

// SourcesResponse is the /v1/sources response body: the replica's
// source-set membership and which per-source results are materialized
// right now. A router reads this to make placement and hand-back
// decisions — e.g. whether a rejoined replica still holds its hash
// slice warm — without guessing from counters.
type SourcesResponse struct {
	Sources          []int `json:"sources"`
	Cached           []int `json:"cached"`
	TrackPaths       bool  `json:"trackPaths"`
	MaxCachedSources int   `json:"maxCachedSources"`
}

func (s *Server) handleSources(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, SourcesResponse{
		Sources:          s.oracle.Sources(),
		Cached:           s.oracle.CachedSourceIDs(),
		TrackPaths:       s.oracle.Options().TrackPaths,
		MaxCachedSources: s.oracle.Options().MaxCachedSources,
	})
}

// StatsResponse is the /v1/stats response body: the Oracle's counters
// plus the derived rates, shaped for a metrics scraper.
type StatsResponse struct {
	Hits             int64   `json:"hits"`
	Misses           int64   `json:"misses"`
	HitRate          float64 `json:"hitRate"`
	Builds           int64   `json:"builds"`
	BuildTimeMillis  int64   `json:"buildTimeMillis"`
	AvgBuildMillis   float64 `json:"avgBuildMillis"`
	Evictions        int64   `json:"evictions"`
	Batches          int64   `json:"batches"`
	BatchQueries     int64   `json:"batchQueries"`
	AvgBatchSize     float64 `json:"avgBatchSize"`
	Warms            int64   `json:"warms"`
	Rejections       int64   `json:"rejections"`
	Cancellations    int64   `json:"cancellations"`
	CachedSources    int     `json:"cachedSources"`
	Sources          int     `json:"sources"`
	MaxCachedSources int     `json:"maxCachedSources"`
	ProvenanceBytes  int64   `json:"provenanceBytes"`

	// The provenance tier (Options.MaxProvenanceBytes): budget strips,
	// on-demand tracked rebuilds, and the most recent warm's plane size
	// before/after post-solve compaction.
	ProvenanceEvictions      int64 `json:"provenanceEvictions"`
	ProvenanceRebuilds       int64 `json:"provenanceRebuilds"`
	ProvenanceRebuildRejects int64 `json:"provenanceRebuildRejects"`
	ProvenanceRawBytes       int64 `json:"provenanceRawBytes"`
	ProvenanceCompactedBytes int64 `json:"provenanceCompactedBytes"`

	// Stage-latency breakdown of the most recent completed warm (zero
	// before any) and its peak live §7.1 path-expansion state — the
	// measured-latency inputs for load shedding. Every stage but the
	// single merge fold is wall time summed over its items (sources,
	// centers), so the numbers stay comparable at any parallelism.
	WarmStageBuildMillis          float64 `json:"warmStageBuildMillis"`
	WarmStageSeedEnumerateMillis  float64 `json:"warmStageSeedEnumerateMillis"`
	WarmStageSeedMergeMillis      float64 `json:"warmStageSeedMergeMillis"`
	WarmStageCenterLandmarkMillis float64 `json:"warmStageCenterLandmarkMillis"`
	WarmStageAssemblyMillis       float64 `json:"warmStageAssemblyMillis"`
	WarmPeakSeedPathBytes         int64   `json:"warmPeakSeedPathBytes"`
}

// millis converts a duration to fractional milliseconds for the wire.
func millis(d time.Duration) float64 {
	return float64(d.Nanoseconds()) / 1e6
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.oracle.Stats()
	writeJSON(w, http.StatusOK, StatsResponse{
		Hits:             st.Hits,
		Misses:           st.Misses,
		HitRate:          st.HitRate(),
		Builds:           st.Builds,
		BuildTimeMillis:  st.BuildTime.Milliseconds(),
		AvgBuildMillis:   float64(st.AvgBuildLatency().Microseconds()) / 1000,
		Evictions:        st.Evictions,
		Batches:          st.Batches,
		BatchQueries:     st.BatchQueries,
		AvgBatchSize:     st.AvgBatchSize(),
		Warms:            st.Warms,
		Rejections:       st.Rejections,
		Cancellations:    st.Cancellations,
		CachedSources:    s.oracle.CachedSources(),
		Sources:          s.numSources,
		MaxCachedSources: s.oracle.Options().MaxCachedSources,
		ProvenanceBytes:  st.ProvenanceBytes,

		ProvenanceEvictions:      st.ProvenanceEvictions,
		ProvenanceRebuilds:       st.ProvenanceRebuilds,
		ProvenanceRebuildRejects: st.ProvenanceRebuildRejects,
		ProvenanceRawBytes:       st.ProvenanceRawBytes,
		ProvenanceCompactedBytes: st.ProvenanceCompactedBytes,

		WarmStageBuildMillis:          millis(st.WarmStages.PerSourceBuild),
		WarmStageSeedEnumerateMillis:  millis(st.WarmStages.SeedEnumerate),
		WarmStageSeedMergeMillis:      millis(st.WarmStages.SeedMerge),
		WarmStageCenterLandmarkMillis: millis(st.WarmStages.CenterLandmark),
		WarmStageAssemblyMillis:       millis(st.WarmStages.Assembly),
		WarmPeakSeedPathBytes:         st.WarmPeakSeedPathBytes,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		// The drain window: the process is still serving in-flight
		// traffic but must stop receiving new routes now, not when the
		// listener finally dies.
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // client gone; nothing useful to do
}
