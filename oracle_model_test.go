package msrp

// Model-based test of the Oracle's cache: seeded random sequences of
// every cache-touching operation, with each answer judged against the
// brute-force reference and, on the sequential unbudgeted runs, the
// cache contents and every counter diffed against a reference LRU
// after each operation. The concurrent runs drive the same operations
// from several goroutines (run it under -race) and keep every check
// that does not depend on interleaving.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"msrp/internal/naive"
	"msrp/internal/rp"
	"msrp/internal/xrand"
)

// modelGraph is one model-test instance with its brute-force answers.
type modelGraph struct {
	name      string
	g         *Graph
	sources   []int
	nonSource int
	want      []*rp.Result // naive.SSRP per source, in source order
	plane     int64        // ProvenanceBytes after an unbudgeted tracked Warm
}

func modelGraphs(t *testing.T) []*modelGraph {
	t.Helper()
	mgs := []*modelGraph{
		{name: "random-26", g: GenerateRandomConnected(41, 26, 60), sources: []int{0, 7, 14, 21}},
		{name: "cycle-chords-28", g: GenerateCycleWithChords(43, 28, 4), sources: []int{0, 7, 14, 21}},
		{name: "grid-4x6", g: GenerateGrid(4, 6), sources: []int{0, 5, 14, 23}},
	}
	for _, mg := range mgs {
		mg.nonSource = mg.sources[1] - 1
		for _, s := range mg.sources {
			mg.want = append(mg.want, naive.SSRP(mg.g.Internal(), int32(s)))
		}
		opts := testOptions(7)
		opts.TrackPaths = true
		o, err := NewOracle(mg.g, mg.sources, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := o.Warm(); err != nil {
			t.Fatal(err)
		}
		if mg.plane = o.Stats().ProvenanceBytes; mg.plane == 0 {
			t.Fatalf("%s: tracked warm retained no provenance", mg.name)
		}
	}
	return mgs
}

// modelConfig is one oracle configuration the sequences run against.
type modelConfig struct {
	maxCached int
	tracked   bool
	budget    int64 // MaxProvenanceBytes; 0 = unlimited
}

func (c modelConfig) String() string {
	return fmt.Sprintf("max=%d/tracked=%v/budget=%d", c.maxCached, c.tracked, c.budget)
}

// configs spans MaxCachedSources ∈ {0, 1, σ−1} against an untracked
// oracle, a tracked one, and a tracked one under a budget of about a
// third of the warm plane.
func (mg *modelGraph) configs() []modelConfig {
	var cs []modelConfig
	for _, max := range []int{0, 1, len(mg.sources) - 1} {
		cs = append(cs,
			modelConfig{maxCached: max},
			modelConfig{maxCached: max, tracked: true},
			modelConfig{maxCached: max, tracked: true, budget: mg.plane / 3})
	}
	return cs
}

func (mg *modelGraph) oracle(t *testing.T, c modelConfig, parallelism int) *Oracle {
	t.Helper()
	opts := testOptions(7)
	opts.Parallelism = parallelism
	opts.MaxCachedSources = c.maxCached
	opts.TrackPaths = c.tracked
	opts.MaxProvenanceBytes = c.budget
	opts.MaxProvenanceRebuilds = 1
	o, err := NewOracle(mg.g, mg.sources, opts)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// query draws a valid (source, target, canonical-path edge) query, and
// now and then a non-source or an out-of-range target so the error
// surfaces are driven too.
func (mg *modelGraph) query(rng *xrand.RNG, paths bool) Query {
	n := mg.g.NumVertices()
	s := mg.sources[rng.Intn(len(mg.sources))]
	switch rng.Intn(16) {
	case 0:
		return Query{Source: mg.nonSource, Target: 0, U: 0, V: 1, Paths: paths}
	case 1:
		return Query{Source: s, Target: n, U: 0, V: 1, Paths: paths}
	}
	tree := mg.want[slices.Index(mg.sources, s)].Tree
	for {
		path := tree.PathTo(int32(rng.Intn(n)))
		if len(path) < 2 {
			continue
		}
		i := rng.Intn(len(path) - 1)
		return Query{Source: s, Target: int(path[len(path)-1]), U: int(path[i]), V: int(path[i+1]), Paths: paths}
	}
}

// expect returns the brute-force length of a valid query and the id of
// its avoided edge.
func (mg *modelGraph) expect(q Query) (int32, int32) {
	want := mg.want[slices.Index(mg.sources, q.Source)]
	path := want.Tree.PathTo(int32(q.Target))
	for i := 0; i+1 < len(path); i++ {
		if a, b := int(path[i]), int(path[i+1]); (a == q.U && b == q.V) || (a == q.V && b == q.U) {
			e, _ := mg.g.Internal().EdgeID(a, b)
			return want.Len[q.Target][i], e
		}
	}
	panic("query edge is off the canonical path")
}

// check judges one answer: errors exactly where the query is malformed,
// or where a path item met a saturated rebuild tier (mayReject); exact
// lengths everywhere else; every returned path machine-validated. A
// QueryPath answer carries no length (hasLength false).
func (mg *modelGraph) check(q Query, a Answer, hasLength, tracked, mayReject bool) error {
	switch {
	case !slices.Contains(mg.sources, q.Source):
		if !errors.Is(a.Err, ErrNotSource) {
			return fmt.Errorf("non-source %+v: err = %v, want ErrNotSource", q, a.Err)
		}
		return nil
	case q.Target >= mg.g.NumVertices():
		if a.Err == nil || errors.Is(a.Err, ErrNotSource) {
			return fmt.Errorf("out-of-range target %+v: err = %v", q, a.Err)
		}
		return nil
	case q.Paths && mayReject && errors.Is(a.Err, ErrRebuildSaturated):
		return nil
	}
	want, e := mg.expect(q)
	if hasLength && a.Length != want {
		return fmt.Errorf("%+v: length %d, naive %d (err %v)", q, a.Length, want, a.Err)
	}
	switch {
	case q.Paths && !tracked:
		if !errors.Is(a.Err, ErrPathsNotTracked) && !(a.Err == nil && hasLength && want == NoPath) {
			return fmt.Errorf("untracked path query %+v: err = %v", q, a.Err)
		}
		return nil
	case a.Err != nil:
		return fmt.Errorf("%+v: unexpected err %v", q, a.Err)
	case !q.Paths:
		return nil
	case want == NoPath:
		if a.Path != nil {
			return fmt.Errorf("%+v: bridge answered with path %v", q, a.Path)
		}
		return nil
	}
	if err := rp.CheckReplacementPath(mg.g.Internal(), a.Path, int32(q.Source), int32(q.Target), e, want); err != nil {
		return fmt.Errorf("%+v: served path invalid: %v", q, err)
	}
	return nil
}

// refCache is the sequential reference the P=1 unbudgeted runs are
// diffed against: an LRU of source ids (most recent first) and the
// counters each operation moves.
type refCache struct {
	max     int
	sources []int
	order   []int
	warmed  bool
	st      OracleStats
}

func (r *refCache) lookup(s int) {
	if !slices.Contains(r.sources, s) {
		return
	}
	if i := slices.Index(r.order, s); i >= 0 {
		r.st.Hits++
		r.order = append([]int{s}, slices.Delete(r.order, i, i+1)...)
		return
	}
	r.st.Misses++
	r.st.Builds++
	r.insert(s)
}

func (r *refCache) insert(s int) {
	r.order = append([]int{s}, r.order...)
	if r.max > 0 && len(r.order) > r.max {
		r.order = r.order[:r.max]
		r.st.Evictions++
	}
}

func (r *refCache) batch(queries []Query) {
	r.st.Batches++
	r.st.BatchQueries += int64(len(queries))
	var seen []int
	for _, q := range queries {
		if !slices.Contains(seen, q.Source) {
			seen = append(seen, q.Source)
			r.lookup(q.Source)
		}
	}
}

// warm mirrors Warm: a no-op once a warm completed or every source is
// cached, else every uncached source is inserted in source order.
func (r *refCache) warm() {
	if r.warmed || len(r.order) == len(r.sources) {
		return
	}
	r.warmed = true
	r.st.Warms++
	for _, s := range r.sources {
		if !slices.Contains(r.order, s) {
			r.insert(s)
		}
	}
}

// modelled keeps the counters the reference predicts exactly.
func modelled(s OracleStats) OracleStats {
	return OracleStats{
		Hits: s.Hits, Misses: s.Misses, Builds: s.Builds, Evictions: s.Evictions,
		Batches: s.Batches, BatchQueries: s.BatchQueries, Warms: s.Warms,
		Rejections: s.Rejections, Cancellations: s.Cancellations,
		ProvenanceEvictions: s.ProvenanceEvictions, ProvenanceRebuilds: s.ProvenanceRebuilds,
		ProvenanceRebuildRejects: s.ProvenanceRebuildRejects,
	}
}

// counters lists every monotone field of a snapshot.
func counters(s OracleStats) []int64 {
	return []int64{s.Hits, s.Misses, s.Builds, int64(s.BuildTime), s.Evictions,
		s.Batches, s.BatchQueries, s.Warms, s.Rejections, s.Cancellations,
		s.ProvenanceEvictions, s.ProvenanceRebuilds, s.ProvenanceRebuildRejects,
		s.ProvenanceRawBytes, s.ProvenanceCompactedBytes}
}

// modelRun drives one op sequence against o. ref, when non-nil, is
// advanced alongside and diffed after every operation; mayReject admits
// ErrRebuildSaturated on path items (concurrent budgeted runs).
type modelRun struct {
	mg        *modelGraph
	c         modelConfig
	o         *Oracle
	ref       *refCache
	mayReject bool
	last      OracleStats
}

func (m *modelRun) step(rng *xrand.RNG) (string, error) {
	mg, o := m.mg, m.o
	var op string
	var errs []error
	answer := func(q Query, a Answer, hasLength bool) {
		if err := mg.check(q, a, hasLength, m.c.tracked, m.mayReject); err != nil {
			errs = append(errs, err)
		}
	}
	switch k := rng.Intn(13); {
	case k < 3:
		q := mg.query(rng, false)
		op = fmt.Sprintf("Query%+v", q)
		var a Answer
		a.Length, a.Err = o.Query(q.Source, q.Target, q.U, q.V)
		answer(q, a, true)
		if m.ref != nil {
			m.ref.lookup(q.Source)
		}
	case k < 6:
		q := mg.query(rng, true)
		op = fmt.Sprintf("QueryPath%+v", q)
		var a Answer
		a.Path, a.Err = o.QueryPath(q.Source, q.Target, q.U, q.V)
		answer(q, a, false)
		if m.ref != nil {
			m.ref.lookup(q.Source)
		}
	case k < 9:
		queries := make([]Query, 1+rng.Intn(6))
		for i := range queries {
			queries[i] = mg.query(rng, rng.Intn(2) == 0)
		}
		op = fmt.Sprintf("QueryBatch%+v", queries)
		for i, a := range o.QueryBatch(queries) {
			answer(queries[i], a, true)
		}
		if m.ref != nil {
			m.ref.batch(queries)
		}
	case k < 10:
		s := mg.sources[rng.Intn(len(mg.sources))]
		op = fmt.Sprintf("Result(%d)", s)
		if d := rp.Diff(mg.want[slices.Index(mg.sources, s)], resultOf(o.Result(s))); d != "" {
			errs = append(errs, fmt.Errorf("Result(%d): %s", s, d))
		}
		if m.ref != nil {
			m.ref.lookup(s)
		}
	case k < 11:
		op = "Warm"
		if err := o.Warm(); err != nil {
			errs = append(errs, err)
		}
		if m.ref != nil {
			m.ref.warm()
		}
	case k < 12:
		subset := make([]int, 1+rng.Intn(len(mg.sources)))
		for i := range subset {
			subset[i] = mg.sources[rng.Intn(len(mg.sources))]
		}
		op = fmt.Sprintf("WarmSources%v", subset)
		if err := o.WarmSources(context.Background(), subset); err != nil {
			errs = append(errs, err)
		}
		if m.ref != nil {
			for _, s := range subset {
				m.ref.lookup(s)
			}
		}
	default:
		op = "QueryBatchContext(cancelled)"
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if answers, err := o.QueryBatchContext(ctx, []Query{mg.query(rng, false)}); answers != nil || !errors.Is(err, context.Canceled) {
			errs = append(errs, fmt.Errorf("cancelled batch: %d answers, err %v", len(answers), err))
		}
		if m.ref != nil {
			m.ref.st.Cancellations++
		}
	}
	if err := m.invariants(); err != nil {
		errs = append(errs, err)
	}
	return op, errors.Join(errs...)
}

// invariants checks the bounds every run keeps and, against a
// reference, the exact cache contents and counters.
func (m *modelRun) invariants() error {
	st := m.o.Stats()
	prev := counters(m.last)
	for i, v := range counters(st) {
		if v < prev[i] {
			return fmt.Errorf("counter %d fell from %d to %d\nbefore %+v\nafter  %+v", i, prev[i], v, m.last, st)
		}
	}
	m.last = st
	if max := m.c.maxCached; max > 0 && m.o.CachedSources() > max {
		return fmt.Errorf("cache holds %d sources, bound %d", m.o.CachedSources(), max)
	}
	if m.c.budget > 0 && st.ProvenanceBytes > m.c.budget {
		return fmt.Errorf("provenance gauge %d exceeds budget %d", st.ProvenanceBytes, m.c.budget)
	}
	if !m.c.tracked && st.ProvenanceBytes != 0 {
		return fmt.Errorf("untracked oracle retains %d provenance bytes", st.ProvenanceBytes)
	}
	if m.ref == nil {
		return nil
	}
	if got, want := m.o.CachedSourceIDs(), slices.Sorted(slices.Values(m.ref.order)); !slices.Equal(got, want) {
		return fmt.Errorf("cached sources %v, reference LRU %v", got, want)
	}
	if got := modelled(st); got != m.ref.st {
		return fmt.Errorf("counters diverged from the reference\ngot  %+v\nwant %+v", got, m.ref.st)
	}
	return nil
}

// TestOracleCacheModel runs seeded random op sequences — Query,
// QueryPath, mixed QueryBatch, Result, Warm, WarmSources and cancelled
// QueryBatchContext — over three small graphs and every modelConfig.
// Sequentially at P=1 each sequence is checked op by op; unbudgeted
// sequences are also diffed against refCache. Then six goroutines
// share one P=2 oracle per configuration, each checking its own
// answers and snapshots, and afterwards rebuild concurrency must have
// stayed within the one-slot admission bound and every source must
// still answer exactly.
func TestOracleCacheModel(t *testing.T) {
	const (
		seqOps        = 20
		goroutines    = 6
		concurrentOps = 6
	)
	for gi, mg := range modelGraphs(t) {
		for ci, c := range mg.configs() {
			t.Run(mg.name+"/"+c.String(), func(t *testing.T) {
				seed := uint64(1000*gi + 10*ci)
				m := &modelRun{mg: mg, c: c, o: mg.oracle(t, c, 1)}
				if c.budget == 0 {
					m.ref = &refCache{max: c.maxCached, sources: mg.sources}
				}
				rng := xrand.New(seed)
				for i := 0; i < seqOps; i++ {
					if op, err := m.step(rng); err != nil {
						t.Fatalf("sequential op %d %s: %v", i, op, err)
					}
				}

				o := mg.oracle(t, c, 2)
				var wg sync.WaitGroup
				failures := make(chan string, goroutines)
				for w := 0; w < goroutines; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						m := &modelRun{mg: mg, c: c, o: o, mayReject: c.budget > 0}
						rng := xrand.New(seed + uint64(w) + 1)
						for i := 0; i < concurrentOps; i++ {
							if op, err := m.step(rng); err != nil {
								failures <- fmt.Sprintf("goroutine %d op %d %s: %v", w, i, op, err)
								return
							}
						}
					}(w)
				}
				wg.Wait()
				close(failures)
				for f := range failures {
					t.Error(f)
				}
				if peak := o.rebuildPeak.Load(); peak > 1 {
					t.Errorf("rebuild concurrency peaked at %d with a 1-slot semaphore", peak)
				}
				for i, s := range mg.sources {
					if d := rp.Diff(mg.want[i], resultOf(o.Result(s))); d != "" {
						t.Errorf("source %d after the concurrent run: %s", s, d)
					}
				}
			})
		}
	}
}
