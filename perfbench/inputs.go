package main

import (
	"runtime"
	"time"

	"msrp"
	"msrp/internal/graph"
	"msrp/internal/load"
	"msrp/internal/ssrp"
)

// inputs is one round's graph, sources, query generator and brute-force
// answers, all made from one seed.
type inputs struct {
	seed    uint64
	ig      *graph.Graph
	g       *msrp.Graph
	sources []int
	qg      *load.QueryGen
	tr      *truth
}

// family is a workload's input distribution: RandomConnected(n, m),
// E8's graph family, with sigma evenly spread sources, queried with mix.
type family struct {
	n, m, sigma int
	mix         []load.BatchMix
}

// inputs builds the graph, sources, query generator and brute-force
// answers for one seed.
func (f family) inputs(seed uint64) (*inputs, error) {
	qg, ig, err := load.NewQueryGen(&load.Plan{
		Graph:    load.GraphSpec{Family: "random", N: f.n, M: f.m, Seed: seed},
		Sources:  f.sigma,
		BatchMix: f.mix,
	})
	if err != nil {
		return nil, err
	}
	sources := qg.Sources()
	return &inputs{seed: seed, ig: ig, g: msrp.WrapGraph(ig), sources: sources, qg: qg, tr: newTruth(ig, sources)}, nil
}

// round returns round r's inputs. A run measures several rounds, each on
// its own graph, so that its medians describe the family rather than one
// draw from it. Round 0 is first, made from the workload seed itself: at
// the pinned default that is E8's graph.
func (f family) round(first *inputs, r int) (*inputs, error) {
	if r == 0 {
		return first, nil
	}
	return f.inputs(first.seed + uint64(r)<<32)
}

// options is the solver configuration every workload starts from. The
// solver's own seed stays fixed (DefaultOptions: Seed 1, SampleBoost
// 1); only the workload seed varies the inputs.
func options(cfg config) msrp.Options {
	opts := msrp.DefaultOptions()
	opts.Parallelism = cfg.par
	return opts
}

// params is options(cfg) as the internal packages take it.
func params(cfg config, trackPaths bool) ssrp.Params {
	p := ssrp.DefaultParams()
	p.Parallelism = cfg.par
	p.TrackPaths = trackPaths
	return p
}

func int32s(xs []int) []int32 {
	out := make([]int32, len(xs))
	for i, x := range xs {
		out[i] = int32(x)
	}
	return out
}

// timeSetups times n oracle constructions, each from a freshly collected
// heap.
func timeSetups(in *inputs, opts msrp.Options, n int) ([]time.Duration, error) {
	var out []time.Duration
	for i := 0; i < n; i++ {
		runtime.GC()
		start := time.Now()
		if _, err := msrp.NewOracle(in.g, in.sources, opts); err != nil {
			return nil, err
		}
		out = append(out, time.Since(start))
	}
	return out, nil
}
