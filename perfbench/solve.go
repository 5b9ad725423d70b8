package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"msrp"
	"msrp/internal/load"
	msrpcore "msrp/internal/msrp"
	"msrp/internal/naive"
	"msrp/internal/rp"
	"msrp/internal/server"
	"msrp/internal/ssrp"
)

// The solve workload: E8's graph family at the ROADMAP's probe size,
// σ=4 evenly spread sources, SampleBoost=1, paths untracked, batches of
// 8 lengths.
var solveFamily = family{n: 300, m: 1200, sigma: 4, mix: []load.BatchMix{{Size: 8, Weight: 1}}}

// Each solve round times solveSetups constructions, one solve, and then
// answers batches for solveBurst against the warmed oracle.
const (
	solveSetups = 8
	solveBurst  = 250 * time.Millisecond
)

func runSolve(cfg config, rep *report) error {
	first, err := solveFamily.inputs(cfg.seed)
	if err != nil {
		return err
	}
	opts := options(cfg)
	rep.note("round 0: graph n=%d m=%d sources=%v; %d brute-force answers per solve",
		first.ig.NumVertices(), first.ig.NumEdges(), first.sources, first.tr.entries())
	// One untimed solve first: the first solve in a process runs slower.
	if _, err := solveOnce(first, opts); err != nil {
		return err
	}
	if cfg.trace {
		return traceSolve(cfg, rep, first)
	}

	// Rounds until the window closes, each on its own graph: set-ups, a
	// solve, then in-process batches, so every metric samples the whole
	// window.
	var setups, solves []time.Duration
	var heaps []float64
	batches := &loadResult{clients: cfg.clients}
	start := time.Now()
	for r := 0; r < 3 || time.Since(start) < cfg.window; r++ {
		in, err := solveFamily.round(first, r)
		if err != nil {
			return err
		}
		s, err := timeSetups(in, opts, solveSetups)
		if err != nil {
			return err
		}
		setups = append(setups, s...)

		before := liveHeap()
		o, err := msrp.NewOracle(in.g, in.sources, opts)
		if err != nil {
			return err
		}
		warmStart := time.Now()
		if err := o.Warm(); err != nil {
			return err
		}
		solves = append(solves, time.Since(warmStart))
		heaps = append(heaps, heapDelta(before, liveHeap()))
		rep.op(checkOracle(in.tr, o, in.sources))
		batches.add(closedLoop(cfg.clients, in, solveBurst, 0, inProcess(o, in.tr)))
	}
	rep.set("setup_s", median(seconds(setups)))
	rep.set("solve_s", median(seconds(solves)))
	rep.set("live_heap_mb", median(heaps))
	rep.note("%d rounds of one solve each; %d set-ups", len(solves), len(setups))
	rep.note("solve s: %s", spread(seconds(solves)))
	return batches.report(rep)
}

// inProcess is a closedLoop send function that calls QueryBatchContext
// directly: what a library caller sees after the solve.
func inProcess(o *msrp.Oracle, tr *truth) func(server.QueryRequest) (time.Duration, error) {
	ctx := context.Background()
	return func(req server.QueryRequest) (time.Duration, error) {
		qs := toQueries(req)
		start := time.Now()
		answers, err := o.QueryBatchContext(ctx, qs)
		d := time.Since(start)
		if err != nil {
			return d, err
		}
		return d, tr.checkAnswers(req, answers)
	}
}

// solveOnce builds a fresh oracle and warms it.
func solveOnce(in *inputs, opts msrp.Options) (*msrp.Oracle, error) {
	o, err := msrp.NewOracle(in.g, in.sources, opts)
	if err != nil {
		return nil, err
	}
	return o, o.Warm()
}

// checkOracle diffs every source's served table against brute force.
func checkOracle(tr *truth, o *msrp.Oracle, sources []int) error {
	for i, s := range sources {
		res := o.Result(s)
		if res == nil {
			return fmt.Errorf("source %d has no result", s)
		}
		if err := tr.checkTable(i, res.Lengths); err != nil {
			return err
		}
	}
	return nil
}

func toQueries(req server.QueryRequest) []msrp.Query {
	qs := make([]msrp.Query, len(req.Queries))
	for i, q := range req.Queries {
		qs[i] = msrp.Query{Source: q.Source, Target: q.Target, U: q.U, V: q.V, Paths: q.Paths}
	}
	return qs
}

// solveStats is what one traced §8 solve yields.
type solveStats struct {
	shared, solve time.Duration
	stats         *msrpcore.Stats
	allocMB       float64
	gcCycles      float64
}

// tracedSolve runs the §8 solve from outside the oracle, with spans
// around ssrp.NewShared and msrp.SolveSharedContext, and returns the
// solver's own counters.
func tracedSolve(tc *tracer, req int64, in *inputs, p ssrp.Params) (*msrpcore.Solution, solveStats, error) {
	var st solveStats
	var sh *ssrp.Shared
	var sol *msrpcore.Solution
	var err error
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	root := tc.begin("solve", 0, req)
	st.shared = tc.timed("ssrp.NewShared", root, req, func() { sh, err = ssrp.NewShared(in.ig, int32s(in.sources), p) })
	if err == nil {
		st.solve = tc.timed("msrp.SolveSharedContext", root, req, func() {
			sol, err = msrpcore.SolveSharedContext(context.Background(), sh)
		})
	}
	tc.end(root)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, st, err
	}
	st.stats = sol.Stats
	st.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	st.gcCycles = float64(m1.NumGC - m0.NumGC)
	return sol, st, nil
}

// checkSolution diffs a §8 solution against brute force, per source.
func checkSolution(rep *report, tr *truth, sol *msrpcore.Solution) {
	for i, res := range sol.Results {
		rep.op(tr.checkTable(i, func(t int) []int32 { return res.Len[t] }))
	}
}

// setStageMetrics reports the §8 stage counters, medians over solves.
// The sizes are the first solve's; they are fixed by the seed.
func setStageMetrics(rep *report, cfg config, runs []solveStats) {
	var shared, build, enum, merge, cl, asm, share, busy, peak, alloc, gcs []float64
	for _, r := range runs {
		s := r.stats
		total := s.StagePerSourceBuild + s.StageSeedEnumerate + s.StageSeedMerge + s.StageCenterLandmark + s.StageAssembly
		shared = append(shared, r.shared.Seconds())
		build = append(build, s.StagePerSourceBuild.Seconds())
		enum = append(enum, s.StageSeedEnumerate.Seconds())
		merge = append(merge, s.StageSeedMerge.Seconds())
		cl = append(cl, s.StageCenterLandmark.Seconds())
		asm = append(asm, s.StageAssembly.Seconds())
		share = append(share, s.StageCenterLandmark.Seconds()/total.Seconds())
		busy = append(busy, total.Seconds()/(float64(cfg.par)*r.solve.Seconds()))
		peak = append(peak, float64(s.PeakSeedPathBytes))
		alloc = append(alloc, r.allocMB)
		gcs = append(gcs, r.gcCycles)
	}
	s := runs[0].stats
	rep.set("ssrp.shared_s", median(shared))
	rep.set("ssrp.landmarks", float64(s.UnionSize))
	rep.set("ssrp.aux_arcs", float64(s.AuxArcs))
	rep.set("msrp.centers", float64(s.CenterCount))
	rep.set("msrp.build_busy_s", median(build))
	rep.set("msrp.enumerate_busy_s", median(enum))
	rep.set("msrp.merge_busy_s", median(merge))
	rep.set("msrp.center_landmark_busy_s", median(cl))
	rep.set("msrp.assembly_busy_s", median(asm))
	rep.set("msrp.center_landmark_share", median(share))
	rep.set("msrp.cl_arcs", float64(s.CLArcs))
	rep.set("msrp.cl_nodes", float64(s.CLNodes))
	rep.set("msrp.sc_arcs", float64(s.SCArcs))
	rep.set("msrp.peak_seed_path_bytes", median(peak))
	rep.set("cuckoo.seed_entries", float64(s.SeedCount))
	rep.set("cuckoo.seed_rehashes", float64(s.SeedRehashes))
	rep.set("engine.busy_ratio", median(busy))
	rep.set("runtime.alloc_mb", median(alloc))
	rep.set("runtime.gc_cycles", median(gcs))
}

// traceSolve is the solve workload's traced run, on round 0's graph. It
// alternates an untraced solve (NewOracle + Warm, as the end-to-end run
// times it) with a traced one, then times the two yardsticks,
// naive.MSRP and σ runs of ssrp.Solve, in the same process.
func traceSolve(cfg config, rep *report, in *inputs) error {
	tc := rep.tracer
	opts := options(cfg)
	p := params(cfg, false)
	var untraced []float64
	var runs []solveStats
	var req int64
	end := time.Now().Add(cfg.window * 3 / 4)
	for len(runs) < 2 || time.Now().Before(end) {
		runtime.GC()
		start := time.Now()
		o, err := solveOnce(in, opts)
		if err != nil {
			return err
		}
		untraced = append(untraced, time.Since(start).Seconds())
		rep.op(checkOracle(in.tr, o, in.sources))

		req++
		sol, st, err := tracedSolve(tc, req, in, p)
		if err != nil {
			return err
		}
		runs = append(runs, st)
		checkSolution(rep, in.tr, sol)
	}
	setStageMetrics(rep, cfg, runs)
	msrpS := median(tc.durByName("solve"))
	rep.set("trace.overhead_ms", 1000*(msrpS-median(untraced)))

	srcs := int32s(in.sources)
	var naiveRuns, ssrpRuns []float64
	end = time.Now().Add(cfg.window / 4)
	for len(naiveRuns) < 3 || time.Now().Before(end) {
		req++
		runtime.GC()
		naiveRuns = append(naiveRuns, tc.timed("baseline.naive.MSRP", 0, req, func() { naive.MSRP(in.ig, srcs) }).Seconds())
		req++
		runtime.GC()
		root := tc.begin("baseline.sigma_ssrp", 0, req)
		for i, s := range srcs {
			var res *rp.Result
			var err error
			tc.timed("ssrp.Solve", root, req, func() { res, _, err = ssrp.Solve(in.ig, s, p) })
			if err != nil {
				return err
			}
			rep.op(in.tr.checkTable(i, func(t int) []int32 { return res.Len[t] }))
		}
		tc.end(root)
		ssrpRuns = append(ssrpRuns, tc.spans[root-1].dur().Seconds())
	}
	rep.set("baseline.naive_s", median(naiveRuns))
	rep.set("baseline.sigma_ssrp_s", median(ssrpRuns))
	rep.set("ratio.msrp_over_naive", msrpS/median(naiveRuns))
	rep.set("ratio.msrp_over_sigma_ssrp", msrpS/median(ssrpRuns))
	rep.note("%d traced solves, %d untraced; yardsticks timed %d times each", len(runs), len(untraced), len(naiveRuns))
	return nil
}
