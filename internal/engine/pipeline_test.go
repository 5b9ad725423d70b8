package engine

import (
	"context"
	"sync/atomic"
	"testing"
)

// TestPipelineCoversEveryIndexInOrder: both stages run exactly once per
// item, and stage B never runs before its own stage A.
func TestPipelineCoversEveryIndexInOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, n := range []int{0, 1, 2, 7, 64, 1000} {
			aRan := make([]atomic.Int32, n)
			bRan := make([]atomic.Int32, n)
			New(workers).PipelineScratch(n,
				func(i int, _ *Scratch) { aRan[i].Add(1) },
				func(i int, _ *Scratch) {
					if aRan[i].Load() != 1 {
						t.Errorf("workers=%d n=%d: stage B of %d ran before its stage A", workers, n, i)
					}
					bRan[i].Add(1)
				})
			for i := 0; i < n; i++ {
				if aRan[i].Load() != 1 || bRan[i].Load() != 1 {
					t.Fatalf("workers=%d n=%d: item %d ran A=%d B=%d times",
						workers, n, i, aRan[i].Load(), bRan[i].Load())
				}
			}
		}
	}
}

// TestPipelineDeterminism: per-index outputs flow A→B and are identical
// for every worker count — the contract that lets the MSRP solve keep
// its bit-identity guarantee on the pipelined schedule.
func TestPipelineDeterminism(t *testing.T) {
	const n = 700
	compute := func(workers int) []int64 {
		mid := make([]int64, n)
		out := make([]int64, n)
		New(workers).PipelineScratch(n,
			func(i int, s *Scratch) {
				buf := s.Int64(i%13 + 1)
				for j := range buf {
					buf[j] = int64(i+1) * int64(j+2)
				}
				var sum int64
				for _, v := range buf {
					sum += v
				}
				mid[i] = sum
			},
			func(i int, s *Scratch) {
				buf := s.Int32(i%7 + 1)
				for j := range buf {
					buf[j] = int32(j)
				}
				out[i] = mid[i]*2 + int64(buf[len(buf)-1])
			})
		return out
	}
	want := compute(1)
	for _, workers := range []int{2, 8} {
		got := compute(workers)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

// forcedOverlap drives the deadlocks-on-regression proof that the
// pipeline really overlaps stages across items: stage B of item 0 waits
// for stage A of item `blocked` to have *started*, and stage A of item
// `blocked` waits for stage B of item 0. A scheduler with a stage
// barrier (all A's before any B) can never run B(0) while A(blocked) is
// parked, so the two waits deadlock and the suite timeout reports it.
// On the pipelined schedule the cycle resolves: the worker that owns
// item 0 flows A(0)→B(0) while another worker is parked inside
// A(blocked), proving B of one item ran strictly inside A of another.
func forcedOverlap(t *testing.T, n, blocked int) {
	t.Helper()
	aBlockedEntered := make(chan struct{})
	b0Done := make(chan struct{})
	var aBlockedFinished atomic.Bool
	var overlapSeen atomic.Bool
	New(2).PipelineScratch(n,
		func(i int, _ *Scratch) {
			if i == blocked {
				close(aBlockedEntered)
				<-b0Done
				aBlockedFinished.Store(true)
			}
		},
		func(i int, _ *Scratch) {
			if i == 0 {
				<-aBlockedEntered
				if !aBlockedFinished.Load() {
					overlapSeen.Store(true)
				}
				close(b0Done)
			}
		})
	if !overlapSeen.Load() {
		t.Fatalf("n=%d blocked=%d: stage B of item 0 never observed stage A of item %d in flight",
			n, blocked, blocked)
	}
}

// TestPipelineForcedOverlapCounter: the smallest overlap — the other
// worker parks in A(1) until B(0) has run.
func TestPipelineForcedOverlapCounter(t *testing.T) { forcedOverlap(t, 2, 1) }

// TestPipelineForcedOverlapStealing: the blocked item sits mid-range
// (n/2), so while one worker waits in B(0) the other must claim and
// finish every item up to it, then park in A(n/2) until B(0) has run.
func TestPipelineForcedOverlapStealing(t *testing.T) { forcedOverlap(t, 64, 32) }

// TestPipelineForcedStealAccounting: the stalled-worker workload of
// TestForcedSteal through PipelineScratchCtx — every other item's
// stages A and B must both run on the one worker that is not stalled.
func TestPipelineForcedStealAccounting(t *testing.T) { stalledItemStrandsNothing(t, true) }

// TestPipelineCtxPreCancelled: a dead context runs nothing in either
// stage on any scheduler.
func TestPipelineCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct{ workers, n int }{
		{1, 100},  // inline
		{4, 8},    // workers, small n
		{4, 1000}, // workers, large n
	} {
		var ran atomic.Int64
		err := New(tc.workers).PipelineScratchCtx(ctx, tc.n,
			func(i int, _ *Scratch) { ran.Add(1) },
			func(i int, _ *Scratch) { ran.Add(1) })
		if err != context.Canceled {
			t.Fatalf("workers=%d n=%d: err = %v, want context.Canceled", tc.workers, tc.n, err)
		}
		if ran.Load() != 0 {
			t.Fatalf("workers=%d n=%d: ran %d stages on a pre-cancelled context", tc.workers, tc.n, ran.Load())
		}
	}
}

// TestPipelineCtxCancelMidChunkStealing pins the cancellation bound at
// a large n: workers check ctx before claiming each item, so after a
// cancel lands at most one item per worker (the one in flight) may end
// A-only; every later item must run neither stage.
func TestPipelineCtxCancelMidChunkStealing(t *testing.T) {
	const n, workers = 1024, 2
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	aRan := make([]atomic.Bool, n)
	bRan := make([]atomic.Bool, n)
	err := New(workers).PipelineScratchCtx(ctx, n,
		func(i int, _ *Scratch) {
			aRan[i].Store(true)
			if i == 0 {
				cancel() // the first item, with ~1000 still unclaimed
			}
		},
		func(i int, _ *Scratch) { bRan[i].Store(true) })
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	aOnly := 0
	for i := range aRan {
		if aRan[i].Load() && !bRan[i].Load() {
			aOnly++
		}
	}
	if aOnly > workers {
		t.Fatalf("%d items ran only stage A after cancellation, want at most %d (one in flight per worker)",
			aOnly, workers)
	}
}

// TestPipelineCtxCancelBetweenStages: cancelling during an item's stage
// A skips that item's stage B (the stage boundary is a cancellation
// point) but never interrupts a stage in flight.
func TestPipelineCtxCancelBetweenStages(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var aRan, bRan atomic.Int64
	err := New(1).PipelineScratchCtx(ctx, 10,
		func(i int, _ *Scratch) {
			aRan.Add(1)
			if i == 3 {
				cancel()
			}
		},
		func(i int, _ *Scratch) { bRan.Add(1) })
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Sequential schedule: items 0..3 ran stage A; B of item 3 was
	// skipped at the stage boundary; no later item started.
	if got := aRan.Load(); got != 4 {
		t.Fatalf("stage A ran %d times, want 4", got)
	}
	if got := bRan.Load(); got != 3 {
		t.Fatalf("stage B ran %d times, want 3 (item 3's B skipped after cancel)", got)
	}
}
