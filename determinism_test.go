package msrp

// Determinism under concurrency: the engine's core contract is that
// Options.Parallelism shards work without changing output. These tests
// run the full pipelines at Parallelism ∈ {1, 2, 8} on identical seeds
// and demand bit-identical results; CI executes them under -race, so
// they double as the data-race proof for the sharded stages and the
// concurrent Oracle.

import (
	"sync"
	"testing"

	"msrp/internal/rp"
)

var determinismWorkerCounts = []int{1, 2, 8}

func TestMultiSourceDeterminismAcrossParallelism(t *testing.T) {
	g := GenerateCycleWithChords(5, 72, 8)
	sources := []int{0, 17, 48}

	var baseline []*Result
	for _, workers := range determinismWorkerCounts {
		opts := testOptions(6)
		opts.Parallelism = workers
		results, err := MultiSource(g, sources, opts)
		if err != nil {
			t.Fatal(err)
		}
		if baseline == nil {
			baseline = results
			continue
		}
		for i := range results {
			if d := rp.Diff(resultOf(baseline[i]), resultOf(results[i])); d != "" {
				t.Fatalf("Parallelism=%d: source %d differs from sequential: %s",
					workers, sources[i], d)
			}
		}
	}
}

// TestMultiSourceDeterminismSkewedWorkload is the skewed-workload
// determinism proof: a path+star mix gives some sources Θ(n)-deep
// canonical paths and others depth-1 star hops, so per-item work in
// every sharded stage differs by orders of magnitude and idle workers
// keep claiming items while one is stalled on a heavy one. Output must
// still be bit-identical at every worker count (CI runs this under
// -race, so it doubles as the data-race proof for the engine's
// scheduler and the sharded seed-table build).
func TestMultiSourceDeterminismSkewedWorkload(t *testing.T) {
	g := GeneratePathStarMix(21, 110, 36, 30)
	// Heavy path-tail sources, light star-leaf sources, interleaved so
	// any contiguous run of items mixes both kinds.
	sources := []int{109, 110, 82, 118, 55, 126, 27, 134}

	var baseline []*Result
	for _, workers := range determinismWorkerCounts {
		opts := testOptions(22)
		opts.Parallelism = workers
		results, err := MultiSource(g, sources, opts)
		if err != nil {
			t.Fatal(err)
		}
		if baseline == nil {
			baseline = results
			continue
		}
		for i := range results {
			if d := rp.Diff(resultOf(baseline[i]), resultOf(results[i])); d != "" {
				t.Fatalf("Parallelism=%d: source %d differs from sequential: %s",
					workers, sources[i], d)
			}
		}
	}
}

func TestSingleSourceDeterminismAcrossParallelism(t *testing.T) {
	g := GenerateRandomConnected(8, 90, 260)
	var baseline *Result
	for _, workers := range determinismWorkerCounts {
		opts := testOptions(7)
		opts.Parallelism = workers
		res, err := SingleSource(g, 0, opts)
		if err != nil {
			t.Fatal(err)
		}
		if baseline == nil {
			baseline = res
			continue
		}
		if d := rp.Diff(resultOf(baseline), resultOf(res)); d != "" {
			t.Fatalf("Parallelism=%d differs from sequential: %s", workers, d)
		}
	}
}

// TestOracleDeterminismUnderConcurrentBatches hammers one Oracle with
// concurrent QueryBatch callers at every worker count (plus an LRU
// small enough to force rebuild-after-eviction) and checks that every
// caller always receives the sequential oracle's answers.
func TestOracleDeterminismUnderConcurrentBatches(t *testing.T) {
	g := GenerateRandomConnected(11, 100, 300)
	sources := []int{0, 25, 50, 75}

	buildQueries := func(o *Oracle) []Query {
		var queries []Query
		for _, s := range sources {
			res := o.Result(s)
			for target := 0; target < g.NumVertices(); target += 3 {
				path := res.PathTo(target)
				for i := 0; i+1 < len(path); i++ {
					queries = append(queries, Query{
						Source: s, Target: target,
						U: int(path[i]), V: int(path[i+1]),
					})
				}
			}
		}
		return queries
	}

	seqOpts := testOptions(13)
	seqOpts.Parallelism = 1
	seq, err := NewOracle(g, sources, seqOpts)
	if err != nil {
		t.Fatal(err)
	}
	queries := buildQueries(seq)
	want := seq.QueryBatch(queries)

	for _, workers := range determinismWorkerCounts {
		opts := testOptions(13)
		opts.Parallelism = workers
		opts.MaxCachedSources = 2 // half the sources: force evict+rebuild
		oracle, err := NewOracle(g, sources, opts)
		if err != nil {
			t.Fatal(err)
		}
		const callers = 6
		got := make([][]Answer, callers)
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				got[c] = oracle.QueryBatch(queries)
			}(c)
		}
		wg.Wait()
		for c := 0; c < callers; c++ {
			if len(got[c]) != len(want) {
				t.Fatalf("Parallelism=%d caller %d: %d answers, want %d",
					workers, c, len(got[c]), len(want))
			}
			for i := range want {
				if (want[i].Err == nil) != (got[c][i].Err == nil) {
					t.Fatalf("Parallelism=%d caller %d query %d: err %v vs %v",
						workers, c, i, got[c][i].Err, want[i].Err)
				}
				if want[i].Err == nil && got[c][i].Length != want[i].Length {
					t.Fatalf("Parallelism=%d caller %d query %+v: %d, want %d",
						workers, c, queries[i], got[c][i].Length, want[i].Length)
				}
			}
		}
		if cap, cached := 2, oracle.CachedSources(); cached > cap {
			t.Fatalf("LRU holds %d sources, bound %d", cached, cap)
		}
	}
}
