package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"time"

	"msrp"
	"msrp/internal/engine"
	"msrp/internal/load"
	"msrp/internal/rp"
	"msrp/internal/server"
	"msrp/internal/ssrp"
)

var (
	// serve-hot: the solve workload's graph family and sources, batches
	// of 8.
	hotFamily = family{n: 300, m: 1200, sigma: 4, mix: pathMix(8)}
	// serve-churn: a smaller graph and more sources than the LRU holds,
	// batches of 2.
	churnFamily = family{n: 200, m: 800, sigma: 8, mix: pathMix(2)}
)

const (
	// serve-hot is tracked, warmed once per round, with no LRU bound;
	// each round serves hotSlice. It is short so that most of the window
	// goes to warms, whose median is the noisier figure; the slices still
	// add up to over a hundred thousand round trips.
	hotSlice = 500 * time.Millisecond
	// replayBatches is how many of the traced run's batches are replayed
	// at every layer boundary.
	replayBatches = 2000

	// serve-churn caches 4 of its 8 sources, under a provenance budget
	// small enough that strips happen.
	churnMaxCached  = 4
	churnProvBudget = 60_000
	churnRounds     = 8
	// Each churn round times churnSolves fresh oracles materializing
	// every source, and churnSetups more constructions.
	churnSolves = 4
	churnSetups = 8
)

// pathMix asks for paths in half the batches.
func pathMix(size int) []load.BatchMix {
	return []load.BatchMix{{Size: size, Weight: 1}, {Size: size, Weight: 1, Paths: true}}
}

// loadResult is what closed-loop windows measured.
type loadResult struct {
	lat                      []time.Duration // every batch's round trip
	batches, failed, queries int64           // queries: answered correctly
	elapsed                  time.Duration
	clients                  int
	kept                     []server.QueryRequest // for the traced replay
}

func (lr *loadResult) add(o *loadResult) {
	lr.lat = append(lr.lat, o.lat...)
	lr.batches += o.batches
	lr.failed += o.failed
	lr.queries += o.queries
	lr.elapsed += o.elapsed
	lr.kept = append(lr.kept, o.kept...)
}

// closedLoop runs clients clients for window. Each sends its own
// stream's next batch as soon as the previous one was answered, so the
// offered load is one outstanding batch per client. send returns the
// timed round trip and whether the answers were right; the check runs
// outside the timed interval. With keep > 0 the first keep batches
// (split across clients) are kept for replay.
func closedLoop(clients int, in *inputs, window time.Duration, keep int,
	send func(server.QueryRequest) (time.Duration, error)) *loadResult {
	per := make([]loadResult, clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(window)
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := &per[c]
			stream := in.qg.Stream(in.seed, c)
			for time.Now().Before(deadline) {
				req := stream.Batch()
				if len(r.kept) < keep/clients {
					r.kept = append(r.kept, req)
				}
				d, err := send(req)
				r.lat = append(r.lat, d)
				r.batches++
				if err != nil {
					r.failed++
					if r.failed <= 3 {
						fmt.Fprintln(os.Stderr, "perfbench: failed batch:", err)
					}
					continue
				}
				r.queries += int64(len(req.Queries))
			}
		}(c)
	}
	wg.Wait()
	out := &loadResult{clients: clients}
	for i := range per {
		out.add(&per[i])
	}
	out.elapsed = time.Since(start)
	return out
}

// count adds the windows' batches to the run's checked operations.
func (lr *loadResult) count(rep *report) {
	rep.attempted += lr.batches
	rep.failed += lr.failed
}

// report counts the batches and sets the batch metrics: exact
// percentiles of the retained round trips, and correctly answered
// queries per second.
func (lr *loadResult) report(rep *report) error {
	lr.count(rep)
	p50, _, err := percentile(lr.lat, 0.50)
	if err != nil {
		return err
	}
	p99, beyond, err := percentile(lr.lat, 0.99)
	if err != nil {
		return err
	}
	rep.set("batch_p50_ms", ms(p50))
	rep.set("batch_p99_ms", ms(p99))
	rep.set("queries_per_s", float64(lr.queries)/lr.elapsed.Seconds())
	rep.note("%d batches by %d clients in %.2fs; p99 from %d samples, %d beyond it",
		lr.batches, lr.clients, lr.elapsed.Seconds(), len(lr.lat), beyond)
	return nil
}

// loopback is the HTTP front-end on a loopback listener inside this
// process, and a keep-alive client for it.
type loopback struct {
	srv        *server.Server
	ts         *httptest.Server
	client     *http.Client
	url        string
	goroutines int // before the server started
}

func startServer(o *msrp.Oracle, clients int) *loopback {
	n := runtime.NumGoroutine()
	srv := server.New(o, server.Config{})
	ts := httptest.NewServer(srv)
	tr := &http.Transport{MaxIdleConns: clients, MaxIdleConnsPerHost: clients, DisableCompression: true}
	return &loopback{srv: srv, ts: ts, client: &http.Client{Transport: tr, Timeout: time.Minute}, url: ts.URL + "/v1/query", goroutines: n}
}

// close stops the server and waits, up to a second, until its
// goroutines and the client's have exited: until then they keep the
// oracle reachable, and the next round's heap reading would count it.
func (lb *loopback) close() {
	lb.client.CloseIdleConnections()
	lb.ts.Close()
	for end := time.Now().Add(time.Second); runtime.NumGoroutine() > lb.goroutines && time.Now().Before(end); {
		time.Sleep(time.Millisecond)
	}
}

// post sends one batch. The round trip runs from sending the request to
// reading the last byte of the response; encoding and decoding the
// JSON on the client are outside it.
func (lb *loopback) post(body []byte) (server.QueryResponse, time.Duration, error) {
	var resp server.QueryResponse
	hreq, err := http.NewRequest(http.MethodPost, lb.url, bytes.NewReader(body))
	if err != nil {
		return resp, 0, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	start := time.Now()
	hresp, err := lb.client.Do(hreq)
	if err != nil {
		return resp, time.Since(start), err
	}
	raw, err := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	d := time.Since(start)
	if err != nil {
		return resp, d, err
	}
	if hresp.StatusCode != http.StatusOK {
		return resp, d, fmt.Errorf("status %d: %s", hresp.StatusCode, bytes.TrimSpace(raw))
	}
	return resp, d, json.Unmarshal(raw, &resp)
}

// checked is a closedLoop send function: post, then judge every answer.
func (lb *loopback) checked(tr *truth) func(server.QueryRequest) (time.Duration, error) {
	return func(req server.QueryRequest) (time.Duration, error) {
		body, err := json.Marshal(req)
		if err != nil {
			return 0, err
		}
		resp, d, err := lb.post(body)
		if err != nil {
			return d, err
		}
		return d, tr.checkBatch(req, resp)
	}
}

// serveRound serves one closed-loop window from o over loopback HTTP.
func serveRound(cfg config, in *inputs, o *msrp.Oracle, window time.Duration) *loadResult {
	lb := startServer(o, cfg.clients)
	defer lb.close()
	return closedLoop(cfg.clients, in, window, 0, lb.checked(in.tr))
}

func runServeHot(cfg config, rep *report) error {
	opts := options(cfg)
	opts.TrackPaths = true
	// Set-up is NewOracle plus the tracked Warm, compaction included;
	// one untimed warm first, as on solve.
	first, err := hotFamily.inputs(cfg.seed)
	if err != nil {
		return err
	}
	if _, err := solveOnce(first, opts); err != nil {
		return err
	}
	if cfg.trace {
		return traceServeHot(cfg, rep, first)
	}
	// Rounds until the window closes, as on solve: a warm on each round's
	// graph, then hotSlice of serving from it. The warm is about a second
	// and varies by ±15% from one to the next on a shared host, so the
	// run takes as many of them as the window holds.
	var setups, solves []time.Duration
	var heaps []float64
	batches := &loadResult{clients: cfg.clients}
	start := time.Now()
	for r := 0; r < 3 || time.Since(start) < cfg.window; r++ {
		in, err := hotFamily.round(first, r)
		if err != nil {
			return err
		}
		before := liveHeap()
		setupStart := time.Now()
		o, err := msrp.NewOracle(in.g, in.sources, opts)
		if err != nil {
			return err
		}
		warmStart := time.Now()
		if err := o.Warm(); err != nil {
			return err
		}
		setups = append(setups, time.Since(setupStart))
		solves = append(solves, time.Since(warmStart))
		heaps = append(heaps, heapDelta(before, liveHeap()))
		rep.op(checkOracle(in.tr, o, in.sources))
		batches.add(serveRound(cfg, in, o, hotSlice))
	}
	rep.set("setup_s", median(seconds(setups)))
	rep.set("solve_s", median(seconds(solves)))
	rep.set("live_heap_mb", median(heaps))
	rep.note("%d rounds of one tracked warm each", len(solves))
	rep.note("solve s: %s", spread(seconds(solves)))
	return batches.report(rep)
}

func churnOptions(cfg config) msrp.Options {
	opts := options(cfg)
	opts.TrackPaths = true
	opts.MaxCachedSources = churnMaxCached
	opts.MaxProvenanceBytes = churnProvBudget
	opts.MaxProvenanceRebuilds = -1 // admission never refuses a rebuild
	return opts
}

func runServeChurn(cfg config, rep *report) error {
	opts := churnOptions(cfg)
	first, err := churnFamily.inputs(cfg.seed)
	if err != nil {
		return err
	}
	if cfg.trace {
		return traceServeChurn(cfg, rep, first)
	}
	ctx := context.Background()
	var setups, solves []time.Duration
	var heaps []float64
	batches := &loadResult{clients: cfg.clients}
	var st msrp.OracleStats
	for r := 0; r < churnRounds; r++ {
		in, err := churnFamily.round(first, r)
		if err != nil {
			return err
		}
		// Set-up is NewOracle alone: there is no warm. solve_s here is
		// every source materialized through the lazy per-source path
		// (WarmSources), which never runs §8.
		for i := 0; i < churnSolves; i++ {
			before := liveHeap()
			start := time.Now()
			o, err := msrp.NewOracle(in.g, in.sources, opts)
			if err != nil {
				return err
			}
			setups = append(setups, time.Since(start))
			warmStart := time.Now()
			if err := o.WarmSources(ctx, in.sources); err != nil {
				return err
			}
			solves = append(solves, time.Since(warmStart))
			heaps = append(heaps, heapDelta(before, liveHeap()))
			rep.op(checkOracle(in.tr, o, in.sources))
		}
		s, err := timeSetups(in, opts, churnSetups)
		if err != nil {
			return err
		}
		setups = append(setups, s...)

		o, err := msrp.NewOracle(in.g, in.sources, opts)
		if err != nil {
			return err
		}
		batches.add(serveRound(cfg, in, o, cfg.window/churnRounds))
		st = addStats(st, o.Stats())
	}
	rep.set("setup_s", median(seconds(setups)))
	rep.set("solve_s", median(seconds(solves)))
	rep.set("live_heap_mb", median(heaps))
	rep.note("oracle: builds=%d evictions=%d provenance strips=%d rebuilds=%d hit rate=%.3f",
		st.Builds, st.Evictions, st.ProvenanceEvictions, st.ProvenanceRebuilds, st.HitRate())
	return batches.report(rep)
}

// addStats sums the counters the churn report prints.
func addStats(a, b msrp.OracleStats) msrp.OracleStats {
	a.Hits += b.Hits
	a.Misses += b.Misses
	a.Builds += b.Builds
	a.Evictions += b.Evictions
	a.ProvenanceEvictions += b.ProvenanceEvictions
	a.ProvenanceRebuilds += b.ProvenanceRebuilds
	return a
}

// setRuntimeMetrics reports allocation and GC over a load window.
func setRuntimeMetrics(rep *report, m0, m1 runtime.MemStats, batches int64) {
	gcs := float64(m1.NumGC - m0.NumGC)
	rep.set("runtime.alloc_kb_per_batch", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/float64(batches))
	rep.set("runtime.gc_cycles_per_1k_batches", 1000*gcs/float64(batches))
	if gcs > 0 {
		rep.set("runtime.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6/gcs)
	}
}

// setOracleMetrics reports the oracle's own counters.
func setOracleMetrics(rep *report, st msrp.OracleStats) {
	rep.set("oracle.hit_rate", st.HitRate())
	rep.set("oracle.builds", float64(st.Builds))
	rep.set("oracle.build_ms", ms(st.AvgBuildLatency()))
	rep.set("oracle.joined_misses", float64(st.Misses-st.Builds))
	rep.set("oracle.evictions", float64(st.Evictions))
	rep.set("oracle.provenance_evictions", float64(st.ProvenanceEvictions))
	rep.set("oracle.provenance_rebuilds", float64(st.ProvenanceRebuilds))
	rep.set("server.rejected", float64(st.Rejections))
}

// tracedWindow serves half a window from o with the runtime counters
// read around it, keeping up to keep batches for replay.
func tracedWindow(cfg config, rep *report, in *inputs, o *msrp.Oracle, lb *loopback, keep int) *loadResult {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	lr := closedLoop(cfg.clients, in, cfg.window/2, keep, lb.checked(in.tr))
	runtime.ReadMemStats(&m1)
	lr.count(rep)
	setRuntimeMetrics(rep, m0, m1, lr.batches)
	setOracleMetrics(rep, o.Stats())
	return lr
}

// traceServeHot is serve-hot's traced run, on round 0's graph. It times
// the tracked solve and its compaction from outside the oracle, serves
// half a window for the runtime and cache counters, then replays the
// recorded batches at each layer boundary: loopback HTTP, ServeHTTP on
// an in-memory recorder, QueryBatchContext, and ReplacementPath per
// path. A layer's self time is the difference between adjacent
// boundaries.
func traceServeHot(cfg config, rep *report, in *inputs) error {
	tc := rep.tracer
	sol, st, err := tracedSolve(tc, 0, in, params(cfg, true))
	if err != nil {
		return err
	}
	raw := sol.Stats.ProvenanceBytes
	d := tc.timed("msrp.CompactProvenance", 0, 0, func() { err = sol.CompactProvenance() })
	if err != nil {
		return err
	}
	rep.set("msrp.compact_s", d.Seconds())
	rep.set("msrp.provenance_raw_bytes", float64(raw))
	rep.set("msrp.provenance_compacted_bytes", float64(sol.Stats.ProvenanceBytes))
	setStageMetrics(rep, cfg, []solveStats{st})
	checkSolution(rep, in.tr, sol)

	opts := options(cfg)
	opts.TrackPaths = true
	o, err := solveOnce(in, opts)
	if err != nil {
		return err
	}
	lb := startServer(o, cfg.clients)
	defer lb.close()
	lr := tracedWindow(cfg, rep, in, o, lb, replayBatches)
	return replayBoundaries(cfg, rep, in, o, lb, lr.kept)
}

// replayBoundaries replays each batch, in order, over loopback HTTP
// without a span (the untraced reference), then with spans at every
// boundary. It stops after half a window.
func replayBoundaries(cfg config, rep *report, in *inputs, o *msrp.Oracle, lb *loopback, batches []server.QueryRequest) error {
	tc := rep.tracer
	ctx := context.Background()
	var untraced []float64
	end := time.Now().Add(cfg.window / 2)
	for i, req := range batches {
		if i > 0 && time.Now().After(end) {
			break
		}
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		resp, d, err := lb.post(body)
		untraced = append(untraced, d.Seconds())
		rep.op(firstErr(err, in.tr.checkBatch(req, resp)))

		id := int64(i + 1)
		hs := tc.begin("net.http", 0, id)
		resp, _, err = lb.post(body)
		tc.end(hs)
		rep.op(firstErr(err, in.tr.checkBatch(req, resp)))

		rec := httptest.NewRecorder()
		hreq := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body))
		ss := tc.begin("server.ServeHTTP", hs, id)
		lb.srv.ServeHTTP(rec, hreq)
		tc.end(ss)
		resp = server.QueryResponse{}
		err = json.Unmarshal(rec.Body.Bytes(), &resp)
		rep.op(firstErr(err, in.tr.checkBatch(req, resp)))

		qs := toQueries(req)
		bs := tc.begin("oracle.QueryBatchContext", ss, id)
		answers, err := o.QueryBatchContext(ctx, qs)
		tc.end(bs)
		rep.op(firstErr(err, in.tr.checkAnswers(req, answers)))

		for _, q := range req.Queries {
			want, _, idx, err := in.tr.want(q.Source, q.Target, q.U, q.V)
			if err != nil {
				return err
			}
			if !q.Paths || want == rp.Inf {
				continue
			}
			res := o.Result(q.Source)
			tc.timed("oracle.ReplacementPath", bs, id, func() { _, err = res.ReplacementPath(q.Target, idx) })
			rep.op(err)
		}
	}
	rep.set("net.self_us", 1e6*median(tc.selfByName("net.http")))
	rep.set("server.self_us", 1e6*median(tc.selfByName("server.ServeHTTP")))
	rep.set("oracle.lookup_us", 1e6*median(tc.selfByName("oracle.QueryBatchContext")))
	rep.set("oracle.path_expand_us", 1e6*median(tc.durByName("oracle.ReplacementPath")))
	rep.set("trace.overhead_ms", 1000*(median(tc.durByName("net.http"))-median(untraced)))
	rep.note("replayed %d batches at each boundary", len(untraced))
	return nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// traceServeChurn is serve-churn's traced run, on round 0's graph: half
// a window of load for the cache and runtime counters, then the lazy
// builds replayed step by step.
func traceServeChurn(cfg config, rep *report, in *inputs) error {
	o, err := msrp.NewOracle(in.g, in.sources, churnOptions(cfg))
	if err != nil {
		return err
	}
	lb := startServer(o, cfg.clients)
	defer lb.close()
	tracedWindow(cfg, rep, in, o, lb, 0)
	return traceLazyBuilds(cfg, rep, in)
}

// traceLazyBuilds replays the oracle's lazy per-source build step by
// step — NewPerSource, BuildSmallNear, SnapshotProvenance,
// ComputeLenSRClassicPool on a one-worker pool, Combine — the way
// Oracle.build runs it, once without spans and once with, per source,
// until half a window has passed.
func traceLazyBuilds(cfg config, rep *report, in *inputs) error {
	tc := rep.tracer
	var sh *ssrp.Shared
	var err error
	d := tc.timed("ssrp.NewShared", 0, 0, func() { sh, err = ssrp.NewShared(in.ig, int32s(in.sources), params(cfg, true)) })
	if err != nil {
		return err
	}
	rep.set("ssrp.shared_s", d.Seconds())
	rep.set("ssrp.landmarks", float64(len(sh.List)))
	seq := engine.New(1)
	var untraced []float64
	var auxArcs int64
	var req int64
	end := time.Now().Add(cfg.window / 2)
	for round := 0; round == 0 || time.Now().Before(end); round++ {
		for i, s := range sh.Sources {
			start := time.Now()
			lazyBuild(nil, 0, sh, s, seq)
			untraced = append(untraced, time.Since(start).Seconds())

			req++
			ps, res := lazyBuild(tc, req, sh, s, seq)
			rep.op(in.tr.checkTable(i, func(t int) []int32 { return res.Len[t] }))
			if round == 0 {
				auxArcs += int64(ps.Small.NumArcs)
			}
		}
	}
	rep.set("ssrp.aux_arcs", float64(auxArcs))
	stepMs := func(name string) float64 { return 1000 * median(tc.durByName(name)) }
	rep.set("ssrp.small_near_ms", stepMs("ssrp.BuildSmallNear"))
	rep.set("ssrp.snapshot_ms", stepMs("ssrp.SnapshotProvenance"))
	rep.set("classic.landmark_runs_ms", stepMs("classic.ComputeLenSRClassicPool"))
	rep.set("ssrp.combine_ms", stepMs("ssrp.Combine"))
	rep.set("trace.overhead_ms", stepMs("oracle.build")-1000*median(untraced))
	rep.note("replayed %d lazy builds", len(untraced))
	return nil
}

// lazyBuild is Oracle.build with a span around each step; tc may be nil.
func lazyBuild(tc *tracer, req int64, sh *ssrp.Shared, s int32, seq *engine.Pool) (*ssrp.PerSource, *rp.Result) {
	var ps *ssrp.PerSource
	var res *rp.Result
	root := tc.begin("oracle.build", 0, req)
	tc.timed("ssrp.NewPerSource", root, req, func() {
		ps = sh.NewPerSource(s)
		ps.TrackPaths = true
	})
	tc.timed("ssrp.BuildSmallNear", root, req, func() { ps.BuildSmallNear() })
	tc.timed("ssrp.SnapshotProvenance", root, req, func() { ps.Snap = ps.Small.SnapshotProvenance() })
	tc.timed("classic.ComputeLenSRClassicPool", root, req, func() { ps.ComputeLenSRClassicPool(seq) })
	tc.timed("ssrp.Combine", root, req, func() { res = ps.Combine(nil) })
	tc.end(root)
	return ps, res
}
