package msrp

// Tests for the oracle cache's provenance tier: a mixed batch against
// a budget-stripped source while rebuild admission is full, a Warm
// whose post-solve compaction fails, and the order the byte budget
// strips in.

import (
	"errors"
	"testing"

	msrpcore "msrp/internal/msrp"
	"msrp/internal/naive"
	"msrp/internal/rp"
	"msrp/internal/xrand"
)

// smallProvOracle builds a tracked oracle over 4 sources of a small
// chorded cycle under the given provenance budget.
func smallProvOracle(t *testing.T, budget int64) (*Graph, *Oracle) {
	t.Helper()
	g := GenerateCycleWithChords(11, 40, 6)
	opts := testOptions(12)
	opts.TrackPaths = true
	opts.MaxProvenanceBytes = budget
	o, err := NewOracle(g, []int{0, 10, 20, 30}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return g, o
}

// TestMixedBatchSaturationServesLengths: a QueryBatch holding a
// length-only and a path query for the same budget-stripped source,
// sent while every rebuild slot is taken, answers the length item from
// the cached entry and returns ErrRebuildSaturated on the path item
// only. Once a slot frees, the same batch serves both.
func TestMixedBatchSaturationServesLengths(t *testing.T) {
	g, o := smallProvOracle(t, 1) // a one-byte budget strips every plane
	if err := o.Warm(); err != nil {
		t.Fatal(err)
	}
	const s, target = 10, 25
	lengthQ := provQuery(t, g.Internal(), o, s, target)
	pathQ := lengthQ
	pathQ.Paths = true
	want, err := o.Query(lengthQ.Source, lengthQ.Target, lengthQ.U, lengthQ.V)
	if err != nil {
		t.Fatal(err)
	}
	if ref := naive.SSRP(g.Internal(), s).Len[target][0]; want != ref {
		t.Fatalf("cached length %d, naive %d", want, ref)
	}

	for len(o.rebuildSem) < cap(o.rebuildSem) {
		o.rebuildSem <- struct{}{}
	}
	before := o.Stats()
	answers := o.QueryBatch([]Query{lengthQ, pathQ})
	if a := answers[0]; a.Err != nil || a.Length != want {
		t.Fatalf("length item under full admission: length %d err %v, want %d and no error", a.Length, a.Err, want)
	}
	if a := answers[1]; !errors.Is(a.Err, ErrRebuildSaturated) || a.Path != nil {
		t.Fatalf("path item under full admission: path %v err %v, want ErrRebuildSaturated", a.Path, a.Err)
	}
	if after := o.Stats(); after.ProvenanceRebuildRejects != before.ProvenanceRebuildRejects+1 ||
		after.ProvenanceRebuilds != before.ProvenanceRebuilds {
		t.Fatalf("rejected batch: rejects %d→%d, rebuilds %d→%d; want one reject, no rebuild",
			before.ProvenanceRebuildRejects, after.ProvenanceRebuildRejects,
			before.ProvenanceRebuilds, after.ProvenanceRebuilds)
	}

	for len(o.rebuildSem) > 0 {
		<-o.rebuildSem
	}
	answers = o.QueryBatch([]Query{lengthQ, pathQ})
	for i, a := range answers {
		if a.Err != nil || a.Length != want {
			t.Fatalf("item %d with a free slot: length %d err %v", i, a.Length, a.Err)
		}
	}
	checkServedPath(t, g.Internal(), pathQ, answers[1].Path, want)
}

// TestWarmCompactionFailureInstallsLengthsOnly forces post-warm
// compaction to fail: Warm still succeeds and installs exact lengths
// with no provenance, the raw plane is recorded but nothing is pinned,
// and every path query is served through an ordinary rebuild with the
// gauge inside the budget throughout.
func TestWarmCompactionFailureInstallsLengthsOnly(t *testing.T) {
	// Budget: half of what lazily building every source retains, so the
	// rebuilds below must strip each other.
	_, ref := smallProvOracle(t, 0)
	for _, s := range ref.Sources() {
		ref.Result(s)
	}
	budget := ref.Stats().ProvenanceBytes / 2

	g, o := smallProvOracle(t, budget)
	o.compact = func(*msrpcore.Solution) error { return errors.New("forced compaction failure") }
	if err := o.Warm(); err != nil {
		t.Fatalf("Warm with failing compaction: %v", err)
	}
	st := o.Stats()
	if st.ProvenanceRawBytes <= 0 || st.ProvenanceCompactedBytes != 0 {
		t.Fatalf("raw %d, compacted %d: want raw > 0 and compacted 0",
			st.ProvenanceRawBytes, st.ProvenanceCompactedBytes)
	}
	if st.ProvenanceBytes != 0 {
		t.Fatalf("lengths-only warm retains %d provenance bytes", st.ProvenanceBytes)
	}

	ig := g.Internal()
	n := ig.NumVertices()
	rng := xrand.New(13)
	for _, s := range o.Sources() {
		want := naive.SSRP(ig, int32(s))
		if d := rp.Diff(want, resultOf(o.Result(s))); d != "" {
			t.Fatalf("source %d after the warm: %s", s, d)
		}
		for k := 0; k < 3; k++ {
			q := provQuery(t, ig, o, s, (s+1+rng.Intn(n-1))%n)
			path, err := o.QueryPath(q.Source, q.Target, q.U, q.V)
			if err != nil {
				t.Fatalf("path query %+v: %v", q, err)
			}
			if length := want.Len[q.Target][0]; length != NoPath {
				checkServedPath(t, ig, q, path, length)
			} else if path != nil {
				t.Fatalf("bridge %+v answered with a path", q)
			}
			if gauge := o.Stats().ProvenanceBytes; gauge > budget {
				t.Fatalf("gauge %d exceeds budget %d", gauge, budget)
			}
		}
	}
	if st := o.Stats(); st.ProvenanceRebuilds < int64(len(o.Sources())) || st.ProvenanceEvictions == 0 {
		t.Fatalf("rebuilds %d, strips %d: want a rebuild per source and strips under the budget",
			st.ProvenanceRebuilds, st.ProvenanceEvictions)
	}
}

// TestProvenanceBudgetStripsByPathRecency: the byte budget strips the
// entry least recently path-queried, not the least recently used. With
// room for any two of three lazily built sources, a path query on the
// older of the first two keeps its provenance when the third arrives;
// the other one is stripped and only it needs a rebuild.
func TestProvenanceBudgetStripsByPathRecency(t *testing.T) {
	const a, b, c = 0, 10, 20
	_, ref := smallProvOracle(t, 0)
	for _, s := range []int{a, b, c} {
		ref.Result(s)
	}
	g, o := smallProvOracle(t, ref.Stats().ProvenanceBytes-1)
	ig := g.Internal()

	o.Result(a)
	o.Result(b) // use order and path order: [b, a]
	qa := provQuery(t, ig, o, a, 25)
	if _, err := o.QueryPath(qa.Source, qa.Target, qa.U, qa.V); err != nil {
		t.Fatal(err)
	}
	o.Result(b) // use order [b, a]; path order [a, b]
	o.Result(c) // over budget: strips b, the least recently path-queried
	if st := o.Stats(); st.ProvenanceEvictions != 1 || st.ProvenanceRebuilds != 0 {
		t.Fatalf("after the third build: %d strips, %d rebuilds; want 1 and 0",
			st.ProvenanceEvictions, st.ProvenanceRebuilds)
	}
	if _, err := o.QueryPath(qa.Source, qa.Target, qa.U, qa.V); err != nil {
		t.Fatal(err)
	}
	if got := o.Stats().ProvenanceRebuilds; got != 0 {
		t.Fatalf("path query on the recently path-queried source rebuilt it (%d rebuilds)", got)
	}
	qb := provQuery(t, ig, o, b, 25)
	if _, err := o.QueryPath(qb.Source, qb.Target, qb.U, qb.V); err != nil {
		t.Fatal(err)
	}
	if got := o.Stats().ProvenanceRebuilds; got != 1 {
		t.Fatalf("path query on the stripped source: %d rebuilds, want 1", got)
	}
}

// TestAllHitBatchAllocs: a batch whose sources are all cached is
// answered inline, with no fan-out and no per-source maps. A warmed
// P = 2 oracle answers an all-hit, length-only batch of 8 queries over
// 4 sources in at most 5 allocations (grouping through maps and a
// RunCtx fan-out took 21).
func TestAllHitBatchAllocs(t *testing.T) {
	const n = 60
	g := GenerateRandomConnected(75, n, 180)
	sources := []int{0, 15, 30, 45}
	opts := testOptions(76)
	opts.Parallelism = 2
	o, err := NewOracle(g, sources, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Warm(); err != nil {
		t.Fatal(err)
	}
	one := batchFor(t, o, sources, n)
	queries := append(append([]Query(nil), one...), one...)
	want := o.QueryBatch(queries)
	for i, a := range want {
		if a.Err != nil {
			t.Fatalf("query %d: %v", i, a.Err)
		}
	}
	builds := o.Stats().Builds
	allocs := testing.AllocsPerRun(100, func() {
		sameAnswers(t, o.QueryBatch(queries), want, "all-hit batch")
	})
	t.Logf("%.1f allocations", allocs)
	if allocs > 5 {
		t.Errorf("all-hit batch of %d queries over %d sources: %.1f allocations, want <= 5", len(queries), len(sources), allocs)
	}
	if got := o.Stats().Builds; got != builds {
		t.Errorf("all-hit batches ran %d builds", got-builds)
	}
}
