package msrp

// Serving-layer tests for the context plumbing (QueryBatchContext /
// WarmContext), the warm single-flight, the ErrNotSource sentinel,
// LRU edge cases, and cross-batch scratch reuse. The cancellation
// acceptance test lives here: a batch cancelled mid-flight must
// return promptly and leave the oracle bit-identical to one that was
// never cancelled.

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"

	"msrp/internal/naive"
	"msrp/internal/rp"
)

// batchFor builds one well-formed query per source: the first canonical
// path edge toward the lowest reachable target at distance >= 1.
func batchFor(t *testing.T, ref *Oracle, sources []int, n int) []Query {
	t.Helper()
	var queries []Query
	for _, s := range sources {
		res := ref.Result(s)
		if res == nil {
			t.Fatalf("Result(%d) = nil", s)
		}
		for target := 0; target < n; target++ {
			path := res.PathTo(target)
			if len(path) < 2 {
				continue
			}
			queries = append(queries, Query{
				Source: s, Target: target,
				U: int(path[0]), V: int(path[1]),
			})
			break
		}
	}
	if len(queries) != len(sources) {
		t.Fatalf("built %d queries for %d sources", len(queries), len(sources))
	}
	return queries
}

// sameAnswers asserts two answer slices are bit-identical (lengths and
// error-ness).
func sameAnswers(t *testing.T, got, want []Answer, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d answers, want %d", label, len(got), len(want))
	}
	for i := range got {
		if (got[i].Err != nil) != (want[i].Err != nil) {
			t.Fatalf("%s: answer %d err = %v, want %v", label, i, got[i].Err, want[i].Err)
		}
		if got[i].Length != want[i].Length {
			t.Fatalf("%s: answer %d length = %d, want %d", label, i, got[i].Length, want[i].Length)
		}
	}
}

// TestQueryBatchContextCancelledMidBatch is the acceptance test: a
// batch cancelled after its first per-source build returns promptly —
// a strict prefix of the builds ran, not the full batch — and the
// oracle afterwards answers bit-identically to one never cancelled.
func TestQueryBatchContextCancelledMidBatch(t *testing.T) {
	const n = 240
	g := GenerateRandomConnected(55, n, 720)
	sources := make([]int, 12)
	for i := range sources {
		sources[i] = i * (n / len(sources))
	}
	opts := testOptions(56)
	opts.Parallelism = 1 // sequential outer fan-out: cancellation is observed between builds
	opts.MaxCachedSources = 4

	ref, err := NewOracle(g, sources, opts)
	if err != nil {
		t.Fatal(err)
	}
	queries := batchFor(t, ref, sources, n)
	want := ref.QueryBatch(queries)

	oracle, err := NewOracle(g, sources, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		for oracle.Stats().Builds == 0 {
			runtime.Gosched()
		}
		cancel()
	}()
	answers, err := oracle.QueryBatchContext(ctx, queries)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch: err = %v, want context.Canceled", err)
	}
	if answers != nil {
		t.Fatalf("cancelled batch returned %d answers", len(answers))
	}
	if builds := oracle.Stats().Builds; builds >= int64(len(sources)) {
		t.Fatalf("cancelled batch ran all %d builds — cancellation not observed between items", builds)
	}
	if got := oracle.Stats().Cancellations; got < 1 {
		t.Fatalf("Cancellations = %d, want >= 1", got)
	}
	if got := oracle.CachedSources(); got > opts.MaxCachedSources {
		t.Fatalf("cache holds %d sources after cancel, bound %d", got, opts.MaxCachedSources)
	}

	// The same oracle must now serve the full batch bit-identically to
	// the never-cancelled reference.
	got, err := oracle.QueryBatchContext(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	sameAnswers(t, got, want, "after cancel")
}

// TestQueryBatchContextPreCancelled: a context dead on arrival runs
// nothing and is counted.
func TestQueryBatchContextPreCancelled(t *testing.T) {
	g := GenerateRandomConnected(57, 40, 100)
	oracle, err := NewOracle(g, []int{0, 20}, testOptions(58))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	answers, err := oracle.QueryBatchContext(ctx, []Query{{Source: 0, Target: 20, U: 0, V: 1}})
	if !errors.Is(err, context.Canceled) || answers != nil {
		t.Fatalf("pre-cancelled batch: answers=%v err=%v", answers, err)
	}
	s := oracle.Stats()
	if s.Builds != 0 || s.Cancellations != 1 {
		t.Fatalf("pre-cancelled batch stats: %+v", s)
	}
}

// TestWarmContextPreCancelled: nothing from a cancelled warm enters the
// cache and the success counter stays put.
func TestWarmContextPreCancelled(t *testing.T) {
	g := GenerateRandomConnected(59, 40, 100)
	oracle, err := NewOracle(g, []int{0, 20}, testOptions(60))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := oracle.WarmContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s := oracle.Stats(); s.Warms != 0 || s.Cancellations != 1 {
		t.Fatalf("stats after cancelled warm: %+v", s)
	}
	if got := oracle.CachedSources(); got != 0 {
		t.Fatalf("cancelled warm cached %d sources", got)
	}
}

// TestWarmContextCancelMidRun cancels while the §8 pipeline runs. The
// race can land either way; both outcomes must leave the oracle
// consistent: a cancelled warm caches nothing and counts no Warm, and
// a subsequent uncancelled Warm succeeds with exact answers.
func TestWarmContextCancelMidRun(t *testing.T) {
	const n = 200
	g := GenerateRandomConnected(61, n, 600)
	sources := []int{0, 40, 80, 120, 160}
	oracle, err := NewOracle(g, sources, testOptions(62))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go cancel() // lands somewhere inside the pipeline (or before it)
	err = oracle.WarmContext(ctx)
	if err != nil {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if s := oracle.Stats(); s.Warms != 0 {
			t.Fatalf("cancelled warm counted: %+v", s)
		}
		if got := oracle.CachedSources(); got != 0 {
			t.Fatalf("cancelled warm cached %d sources", got)
		}
	}
	if err := oracle.Warm(); err != nil {
		t.Fatal(err)
	}
	for _, s := range sources {
		wantRes := naive.SSRP(g.Internal(), int32(s))
		if d := rp.Diff(wantRes, resultOf(oracle.Result(s))); d != "" {
			t.Fatalf("source %d after cancel-then-warm: %s", s, d)
		}
	}
}

// TestWarmSingleFlight: concurrent Warms run the σn² pipeline once.
// Regression: the check-then-act race let two concurrent Warms both
// run the full pipeline (and the counter ticked even on error paths).
func TestWarmSingleFlight(t *testing.T) {
	g := GenerateRandomConnected(63, 80, 240)
	sources := []int{0, 20, 40, 60}
	opts := testOptions(64) // unbounded cache: after one warm, all sources stay resident
	oracle, err := NewOracle(g, sources, opts)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := oracle.Warm(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	// Concurrent callers joined one in-flight run; later callers saw a
	// fully-cached oracle. Either way, exactly one pipeline ran.
	if got := oracle.Stats().Warms; got != 1 {
		t.Fatalf("Warms = %d after 8 concurrent calls, want 1 (single-flight)", got)
	}
	if got := oracle.CachedSources(); got != len(sources) {
		t.Fatalf("cached %d sources, want %d", got, len(sources))
	}
}

// TestWarmRepeatNoOp: once a warm pipeline has completed, further
// Warms are no-ops even when the LRU bound keeps the cache below σ —
// re-running would only churn hot entries out for results the bound
// evicts again.
func TestWarmRepeatNoOp(t *testing.T) {
	g := GenerateRandomConnected(75, 60, 180)
	sources := []int{0, 15, 30, 45}
	opts := testOptions(76)
	opts.MaxCachedSources = 2 // < len(sources): the cache can never look "all warmed"
	oracle, err := NewOracle(g, sources, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := oracle.Warm(); err != nil {
		t.Fatal(err)
	}
	if got := oracle.Stats().Warms; got != 1 {
		t.Fatalf("Warms = %d, want 1", got)
	}
	evictions := oracle.Stats().Evictions
	for i := 0; i < 3; i++ {
		if err := oracle.Warm(); err != nil {
			t.Fatal(err)
		}
	}
	if s := oracle.Stats(); s.Warms != 1 || s.Evictions != evictions {
		t.Fatalf("repeat Warm re-ran the pipeline: %+v (want warms=1, evictions=%d)", s, evictions)
	}
}

// TestErrNotSourceSentinel: every "not an oracle source" surface wraps
// the sentinel so callers use errors.Is, not string matching.
func TestErrNotSourceSentinel(t *testing.T) {
	g := GenerateRandomConnected(65, 30, 80)
	oracle, err := NewOracle(g, []int{0, 15}, testOptions(66))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := oracle.Query(7, 0, 0, 1); !errors.Is(err, ErrNotSource) {
		t.Fatalf("Query: err = %v, want ErrNotSource", err)
	}
	answers := oracle.QueryBatch([]Query{
		{Source: 7, Target: 0, U: 0, V: 1},
		{Source: 0, Target: 15, U: 0, V: 1},
	})
	if !errors.Is(answers[0].Err, ErrNotSource) {
		t.Fatalf("QueryBatch: err = %v, want ErrNotSource", answers[0].Err)
	}
	if errors.Is(answers[1].Err, ErrNotSource) {
		t.Fatalf("valid-source answer wrongly tagged: %v", answers[1].Err)
	}
	if res := oracle.Result(7); res != nil {
		t.Fatal("Result on a non-source returned a result")
	}
	// The message still carries the offending id for humans.
	if _, err := oracle.Query(7, 0, 0, 1); err == nil || !errors.Is(err, ErrNotSource) {
		t.Fatalf("err = %v", err)
	}
}

// TestOracleLRUSingleSlotChurn: MaxCachedSources = 1 under round-robin
// insert/evict churn stays exact, bounded, and counts every eviction.
func TestOracleLRUSingleSlotChurn(t *testing.T) {
	g := GenerateRandomConnected(67, 50, 150)
	sources := []int{0, 10, 20, 30}
	opts := testOptions(68)
	opts.MaxCachedSources = 1
	oracle, err := NewOracle(g, sources, opts)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 3
	for r := 0; r < rounds; r++ {
		for _, s := range sources {
			res := oracle.Result(s)
			if res == nil {
				t.Fatalf("Result(%d) = nil", s)
			}
			if got := oracle.CachedSources(); got != 1 {
				t.Fatalf("cache holds %d sources, want exactly 1", got)
			}
			wantRes := naive.SSRP(g.Internal(), int32(s))
			if d := rp.Diff(wantRes, resultOf(res)); d != "" {
				t.Fatalf("round %d source %d: %s", r, s, d)
			}
		}
	}
	s := oracle.Stats()
	wantBuilds := int64(rounds * len(sources)) // every touch evicts the previous source
	if s.Builds != wantBuilds || s.Evictions != wantBuilds-1 || s.Hits != 0 {
		t.Fatalf("churn stats: %+v (want builds=%d evictions=%d hits=0)", s, wantBuilds, wantBuilds-1)
	}
}

// TestOracleLRUTailTouch: touching the tail entry must move it off the
// eviction seat — the next insert evicts the other entry, and the
// touched source stays served from cache.
func TestOracleLRUTailTouch(t *testing.T) {
	g := GenerateRandomConnected(69, 50, 150)
	a, b, c := 0, 10, 20
	opts := testOptions(70)
	opts.MaxCachedSources = 2
	oracle, err := NewOracle(g, []int{a, b, c}, opts)
	if err != nil {
		t.Fatal(err)
	}
	oracle.Result(a) // cache: [a]
	oracle.Result(b) // cache: [b, a] — a is the tail
	oracle.Result(a) // touch the tail: [a, b]
	if s := oracle.Stats(); s.Builds != 2 || s.Hits != 1 {
		t.Fatalf("after tail touch: %+v", s)
	}
	oracle.Result(c) // evicts b (the tail now), not a
	if s := oracle.Stats(); s.Builds != 3 || s.Evictions != 1 {
		t.Fatalf("after insert over full cache: %+v", s)
	}
	oracle.Result(a) // must still be a hit
	if s := oracle.Stats(); s.Builds != 3 || s.Hits != 2 {
		t.Fatalf("tail-touched source was evicted: %+v", s)
	}
	oracle.Result(b) // b was the eviction victim: rebuild
	if s := oracle.Stats(); s.Builds != 4 {
		t.Fatalf("victim not rebuilt: %+v", s)
	}
}

// TestOracleLRUEvictionRacesInflightBuild: a tight LRU thrashing under
// concurrent callers — evictions race in-flight single-flight builds —
// must stay bounded and exact (run under -race in CI).
func TestOracleLRUEvictionRacesInflightBuild(t *testing.T) {
	g := GenerateRandomConnected(71, 60, 180)
	sources := []int{0, 10, 20, 30, 40, 50}
	opts := testOptions(72)
	opts.MaxCachedSources = 1
	oracle, err := NewOracle(g, sources, opts)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				for i := range sources {
					s := sources[(i+w)%len(sources)] // offset walks: constant cross-eviction
					if oracle.Result(s) == nil {
						t.Errorf("Result(%d) = nil", s)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := oracle.CachedSources(); got > 1 {
		t.Fatalf("cache holds %d sources, bound 1", got)
	}
	for _, s := range sources {
		wantRes := naive.SSRP(g.Internal(), int32(s))
		if d := rp.Diff(wantRes, resultOf(oracle.Result(s))); d != "" {
			t.Fatalf("source %d after eviction race: %s", s, d)
		}
	}
}
