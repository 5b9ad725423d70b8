package engine

import (
	"context"
	"sync/atomic"
	"testing"
)

// TestRunCtxCompletesWithoutCancel: an uncancelled context behaves
// exactly like Run — every index executes, nil error.
func TestRunCtxCompletesWithoutCancel(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		for _, n := range []int{0, 1, 7, 64, 1000} {
			var count atomic.Int64
			err := New(workers).RunCtx(context.Background(), n, func(i int) {
				count.Add(1)
			})
			if err != nil {
				t.Fatalf("workers=%d n=%d: err = %v", workers, n, err)
			}
			if int(count.Load()) != n {
				t.Fatalf("workers=%d n=%d: ran %d items", workers, n, count.Load())
			}
		}
	}
}

// TestRunCtxPreCancelled: a context cancelled before the call runs
// nothing, inline or on the worker goroutines, at small and large n.
func TestRunCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct{ workers, n int }{
		{1, 100},  // inline
		{4, 8},    // workers, small n
		{4, 1000}, // workers, large n
	} {
		ran := int64(0)
		var count = &ran
		err := New(tc.workers).RunCtx(ctx, tc.n, func(i int) {
			atomic.AddInt64(count, 1)
		})
		if err != context.Canceled {
			t.Fatalf("workers=%d n=%d: err = %v, want context.Canceled", tc.workers, tc.n, err)
		}
		if got := atomic.LoadInt64(count); got != 0 {
			t.Fatalf("workers=%d n=%d: ran %d items on a pre-cancelled context", tc.workers, tc.n, got)
		}
	}
}

// TestRunCtxSequentialCancelMidRun is the deterministic promptness
// assertion: on the sequential path, cancellation is observed before
// every item, so cancelling inside fn(5) means exactly items 0..5 ran
// — the cancel() has returned (the Done channel is closed) before the
// item-6 check happens.
func TestRunCtxSequentialCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	executed := 0
	err := New(1).RunCtx(ctx, 100, func(i int) {
		executed++
		if i == 5 {
			cancel()
		}
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if executed != 6 {
		t.Fatalf("executed %d items, want exactly 6 (cancel inside item 5)", executed)
	}
}

// cancelMidRun: a cancel fired by the very first item bounds the
// damage to the items already in flight — at most one per worker, at
// every n, because each worker checks ctx before claiming its next
// item.
func cancelMidRun(t *testing.T, n int) {
	const workers = 4
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	release := make(chan struct{})
	var executed atomic.Int64
	err := New(workers).RunCtx(ctx, n, func(i int) {
		executed.Add(1)
		if i == 0 {
			cancel()
			close(release)
			return
		}
		// Everyone else parks until the cancel has landed, so no worker
		// can claim a post-cancel item: at most `workers` items run.
		<-release
	})
	if err != context.Canceled {
		t.Fatalf("n=%d: err = %v, want context.Canceled", n, err)
	}
	if got := executed.Load(); got > workers {
		t.Fatalf("n=%d: executed %d items after immediate cancel, want <= %d (one in-flight item per worker)",
			n, got, workers)
	}
}

// TestRunCtxCounterCancelMidRun: the bound at a small n (3 items per
// worker).
func TestRunCtxCounterCancelMidRun(t *testing.T) { cancelMidRun(t, 12) }

// TestRunCtxStealingCancelMidRun: the same bound at the large n where
// range stealing used to let each worker finish its whole claimed chunk
// after the cancel.
func TestRunCtxStealingCancelMidRun(t *testing.T) { cancelMidRun(t, 100_000) }

// TestScratchGrowthGeometric asserts the arena reallocates O(log)
// times across repeated carve-offs, not once per carve-off. Regression:
// growth to exactly used+n re-copied every live buffer on every
// subsequent carve-off (quadratic in total carved bytes).
func TestScratchGrowthGeometric(t *testing.T) {
	const carves = 4096
	const each = 8
	s := &Scratch{}
	reallocs := 0
	prevCap := len(s.i32)
	for i := 0; i < carves; i++ {
		s.Int32(each)
		if c := len(s.i32); c != prevCap {
			reallocs++
			prevCap = c
		}
	}
	// Geometric doubling from `each` to carves*each: log2(4096) + 1
	// steps, rounded generously.
	if reallocs > 16 {
		t.Fatalf("Int32 arena reallocated %d times across %d carve-offs; want O(log), <= 16", reallocs, carves)
	}

	s2 := &Scratch{}
	reallocs = 0
	prevCap64 := len(s2.i64)
	prevCapB := len(s2.bools)
	for i := 0; i < carves; i++ {
		s2.Int64(each)
		s2.Bool(each)
		if c := len(s2.i64); c != prevCap64 {
			reallocs++
			prevCap64 = c
		}
		if c := len(s2.bools); c != prevCapB {
			reallocs++
			prevCapB = c
		}
	}
	if reallocs > 32 {
		t.Fatalf("Int64+Bool arenas reallocated %d times across %d carve-offs; want O(log), <= 32", reallocs, carves)
	}
}

// TestScratchAllocsCountsFreshArenas: the pool-level counter moves only
// when the free list misses.
func TestScratchAllocsCountsFreshArenas(t *testing.T) {
	p := New(1)
	if got := p.ScratchAllocs(); got != 0 {
		t.Fatalf("fresh pool ScratchAllocs = %d", got)
	}
	p.Run(4, func(int) {})
	if got := p.ScratchAllocs(); got != 1 {
		t.Fatalf("after one sequential stage ScratchAllocs = %d, want 1", got)
	}
	for i := 0; i < 10; i++ {
		p.Run(4, func(int) {})
	}
	if got := p.ScratchAllocs(); got != 1 {
		t.Fatalf("steady state ScratchAllocs = %d, want 1 (free list must serve repeats)", got)
	}
}
