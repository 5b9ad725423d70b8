package engine

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
)

func TestRunCoversEveryIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 100} {
		for _, n := range []int{0, 1, 2, 7, 64, 1000, 4097} {
			p := New(workers)
			hits := make([]int32, n)
			var mu sync.Mutex
			total := 0
			p.Run(n, func(i int) {
				hits[i]++
				mu.Lock()
				total++
				mu.Unlock()
			})
			if total != n {
				t.Fatalf("workers=%d n=%d: ran %d items", workers, n, total)
			}
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestNewClampsWorkers(t *testing.T) {
	if w := New(0).Workers(); w < 1 {
		t.Fatalf("New(0).Workers() = %d", w)
	}
	if w := New(-3).Workers(); w < 1 {
		t.Fatalf("New(-3).Workers() = %d", w)
	}
	if w := New(7).Workers(); w != 7 {
		t.Fatalf("New(7).Workers() = %d", w)
	}
}

// TestDeterminism: the canonical engine contract — per-index outputs are
// identical for every worker count because fn(i) owns index i's state.
func TestDeterminism(t *testing.T) {
	const n = 500
	compute := func(workers int) []int64 {
		out := make([]int64, n)
		New(workers).RunScratch(n, func(i int, s *Scratch) {
			buf := s.Int64(i + 1)
			for j := range buf {
				buf[j] = int64(i) * int64(j+1)
			}
			var sum int64
			for _, v := range buf {
				sum += v
			}
			out[i] = sum
		})
		return out
	}
	want := compute(1)
	for _, workers := range []int{2, 4, 16} {
		got := compute(workers)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

// stalledItemStrandsNothing is the scheduler's liveness contract at
// P = 2: item 0 parks until every other item has finished, so the run
// can only complete if the other worker runs all n−1 remaining items —
// no item may be bound to the stalled worker ahead of time (a pre-split
// range or a claimed-ahead chunk would be). On regression the test
// deadlocks and the suite's timeout reports it. Each item's stages A
// and B must also run on the same scratch (the depth-first contract);
// without the pipeline both run inside one RunScratch item.
func stalledItemStrandsNothing(t *testing.T, pipeline bool) {
	const workers = 2
	for _, n := range []int{2, 8, 1024} {
		release := make(chan struct{})
		var finished atomic.Int64
		execA := make([]*Scratch, n) // which worker's scratch ran each stage
		execB := make([]*Scratch, n)
		stageA := func(i int, s *Scratch) {
			execA[i] = s
			if i == 0 {
				<-release
			}
		}
		stageB := func(i int, s *Scratch) {
			execB[i] = s
			if i != 0 && finished.Add(1) == int64(n-1) {
				close(release)
			}
		}
		p := New(workers)
		if pipeline {
			if err := p.PipelineScratchCtx(context.Background(), n, stageA, stageB); err != nil {
				t.Fatal(err)
			}
		} else {
			p.RunScratch(n, func(i int, s *Scratch) {
				stageA(i, s)
				stageB(i, s)
			})
		}
		for i := 0; i < n; i++ {
			if execA[i] != execB[i] {
				t.Fatalf("pipeline=%v n=%d: item %d split its stages across workers", pipeline, n, i)
			}
			if i > 0 && execA[i] == execA[0] {
				t.Fatalf("pipeline=%v n=%d: item %d ran on the stalled worker", pipeline, n, i)
			}
		}
	}
}

// TestForcedSteal: the work a stalled worker would once have had stolen
// from it must all reach the other worker through RunScratch.
func TestForcedSteal(t *testing.T) { stalledItemStrandsNothing(t, false) }

// TestStealingMatchesCounter: the sizes that once took the
// range-stealing path (n ≥ 4 items per worker) and those that took the
// counter now share one scheduler; at every size and worker count the
// per-index output must equal the inline P = 1 run's.
func TestStealingMatchesCounter(t *testing.T) {
	for _, n := range []int{8, 64, 1000, 4097} {
		want := make([]int64, n)
		New(1).Run(n, func(i int) { want[i] = int64(i)*3 + 1 })
		for _, workers := range []int{2, 3, 8} {
			out := make([]int64, n)
			New(workers).Run(n, func(i int) {
				out[i] = int64(i)*3 + 1
			})
			for i := range out {
				if out[i] != want[i] {
					t.Fatalf("n=%d workers=%d: out[%d] = %d, want %d", n, workers, i, out[i], want[i])
				}
			}
		}
	}
}

func TestScratchBuffersDisjoint(t *testing.T) {
	s := &Scratch{}
	a := s.Int32(10)
	b := s.Int32(10)
	for i := range a {
		a[i] = 1
	}
	for i := range b {
		b[i] = 2
	}
	for i := range a {
		if a[i] != 1 {
			t.Fatal("second buffer clobbered the first")
		}
	}
	c := s.Bool(5)
	d := s.Bool(5)
	c[0], d[0] = true, false
	if !c[0] {
		t.Fatal("bool buffers overlap")
	}
	e := s.Int64(4)
	f := s.Int64(4)
	e[0], f[0] = 7, 9
	if e[0] != 7 {
		t.Fatal("int64 buffers overlap")
	}
}

func TestScratchReuseAfterReset(t *testing.T) {
	s := &Scratch{}
	a := s.Int32(100)
	first := &a[0]
	s.Reset()
	b := s.Int32(100)
	if &b[0] != first {
		t.Fatal("Reset did not recycle the backing array")
	}
}

func TestScratchAttachPersists(t *testing.T) {
	s := &Scratch{}
	made := 0
	mk := func() any { made++; return &made }
	v1 := s.Attach("k", mk)
	s.Reset()
	v2 := s.Attach("k", mk)
	if v1 != v2 || made != 1 {
		t.Fatalf("Attach did not persist across Reset (made=%d)", made)
	}
}

// TestPoolFreeListCarriesScratch: the same scratch (and thus its
// attachments) flows from one sequential stage to the next.
func TestPoolFreeListCarriesScratch(t *testing.T) {
	p := New(1)
	var seen any
	p.RunScratch(1, func(i int, s *Scratch) {
		seen = s.Attach("x", func() any { return new(int) })
	})
	p.RunScratch(1, func(i int, s *Scratch) {
		if got := s.Attach("x", func() any { return new(int) }); got != seen {
			t.Error("free list did not reuse the scratch between stages")
		}
	})
}

func TestRunScratchSteadyStateAllocs(t *testing.T) {
	p := New(1)
	work := func() {
		p.RunScratch(8, func(i int, s *Scratch) {
			buf := s.Int32(1 << 12)
			buf[0] = int32(i)
		})
	}
	work() // warm the arena
	allocs := testing.AllocsPerRun(20, work)
	if allocs > 2 { // the closure itself may allocate; buffers must not
		t.Fatalf("steady-state RunScratch allocates %.1f objects/run", allocs)
	}
}
