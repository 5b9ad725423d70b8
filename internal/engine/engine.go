// Package engine provides the sharded execution primitives shared by
// every parallel stage of the repository: a sized worker pool for
// index-structured work and an arena-style per-worker scratch space.
//
// The MSRP pipeline (internal/msrp), the landmark BFS forests
// (internal/bfs), and the batched Oracle all have the same shape of
// parallelism: n independent items where fn(i) touches only the i-th
// item's state. The engine shards those items across a bounded set of
// workers. Because item i's output never depends on which worker ran it
// or in what order, the schedule cannot change the result: output is
// deterministic for any worker count (asserted by the determinism tests
// at every layer above).
//
// Scratch removes the other cost of fanning out: per-item O(n)
// allocations. Each worker owns one Scratch, reused across all items it
// processes and — because the Pool keeps a free list — across pipeline
// stages too. After warmup a parallel stage performs no per-item
// scratch allocation at all.
package engine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a sized worker pool. The zero value is not useful; construct
// with New. A Pool is safe for concurrent use and may be shared across
// pipeline stages: its scratch free list is what carries buffer reuse
// from one stage to the next.
type Pool struct {
	workers int

	mu   sync.Mutex
	free []*Scratch

	// allocs counts Scratch allocations over the pool's lifetime — the
	// observable that lets the serving layer assert its steady state
	// performs no scratch growth (see ScratchAllocs).
	allocs atomic.Int64
}

// New returns a pool with the given worker bound. workers <= 0 selects
// GOMAXPROCS ("as parallel as the hardware allows"); workers == 1 means
// strictly sequential execution on the calling goroutine.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers returns the resolved worker bound (always >= 1).
func (p *Pool) Workers() int { return p.workers }

// ScratchAllocs returns how many Scratch arenas the pool has allocated
// over its lifetime. In steady state (same stage shapes, same
// concurrency) the count is constant: every RunScratch grab is served
// off the free list. Observability for tests and serving-layer
// assertions; not part of any hot path.
func (p *Pool) ScratchAllocs() int64 { return p.allocs.Load() }

// Run executes fn(i) for every i in [0, n), sharded across up to
// Workers() goroutines. fn must touch only state owned by its index.
// Run returns after every item has completed.
func (p *Pool) Run(n int, fn func(i int)) {
	p.RunScratch(n, func(i int, _ *Scratch) { fn(i) })
}

// RunCtx is Run with cancellation: workers observe ctx.Done() before
// claiming each item and stop claiming once the context is cancelled.
// Items already started run to completion — fn is never interrupted
// mid-item — so after a cancel at most one in-flight item per worker
// still finishes, and on a non-nil return some suffix of the index
// space simply never ran. Returns ctx.Err() if the context was
// cancelled, nil otherwise.
func (p *Pool) RunCtx(ctx context.Context, n int, fn func(i int)) error {
	return p.RunScratchCtx(ctx, n, func(i int, _ *Scratch) { fn(i) })
}

// RunScratchCtx is RunScratch with the cancellation semantics of
// RunCtx.
func (p *Pool) RunScratchCtx(ctx context.Context, n int, fn func(i int, s *Scratch)) error {
	p.runScratch(n, ctx.Done(), fn)
	return ctx.Err()
}

// RunScratch is Run with a per-worker Scratch: all items executed by
// the same worker share one Scratch, which is Reset between items.
// Buffers obtained from the Scratch are valid only for the current
// item.
//
// Scheduling: workers claim items one at a time, in index order, from
// one shared atomic counter, so an idle worker always takes the next
// unclaimed item and a worker stalled on a heavy item (per-source and
// per-center work is skewed) strands nothing behind it. One atomic add
// per item is noise next to the solver's items, the cheapest of which
// is one BFS or ancestry build over the graph. With one worker, or one
// item, the items run inline on the calling goroutine. The schedule
// never affects output: fn(i) owns index i's state.
func (p *Pool) RunScratch(n int, fn func(i int, s *Scratch)) {
	p.runScratch(n, nil, fn)
}

// canceled reports whether done is closed. A nil done channel (the
// context-free entry points) never cancels; the non-blocking receive
// costs one channel poll per check, paid between items — never inside
// fn.
func canceled(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// runScratch runs fn over [0, n) on up to Workers() goroutines. done,
// when non-nil, is a cancellation signal: once closed, workers stop
// claiming new items (the item in flight still completes).
func (p *Pool) runScratch(n int, done <-chan struct{}, fn func(i int, s *Scratch)) {
	if n <= 0 {
		return
	}
	workers := min(p.workers, n)
	if workers < 2 {
		s := p.grab()
		for i := 0; i < n && !canceled(done); i++ {
			s.Reset()
			fn(i, s)
		}
		p.release(s)
		return
	}
	var wg sync.WaitGroup
	var next atomic.Int64
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			s := p.grab()
			defer p.release(s)
			for !canceled(done) {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				s.Reset()
				fn(i, s)
			}
		}()
	}
	wg.Wait()
}

// grab takes a Scratch off the free list, or allocates a fresh one.
func (p *Pool) grab() *Scratch {
	p.mu.Lock()
	defer p.mu.Unlock()
	if k := len(p.free); k > 0 {
		s := p.free[k-1]
		p.free = p.free[:k-1]
		return s
	}
	p.allocs.Add(1)
	return &Scratch{}
}

// release returns a Scratch to the free list for the next stage.
func (p *Pool) release(s *Scratch) {
	s.Reset()
	p.mu.Lock()
	p.free = append(p.free, s)
	p.mu.Unlock()
}

// Scratch is an arena of reusable typed buffers owned by one worker.
// Buffers are carved off growable backing arrays; Reset recycles them
// all without freeing, so steady-state use allocates nothing.
//
// Contents of returned buffers are unspecified (not zeroed): callers
// that need a sentinel fill must write it themselves, exactly as they
// would after make().
type Scratch struct {
	i32     []int32
	i32Used int
	i64     []int64
	i64Used int
	bools   []bool
	bUsed   int

	attach map[string]any
}

// Reset recycles every buffer handed out since the previous Reset.
// Attached values (Attach) survive: they are the per-worker caches that
// make cross-item reuse possible.
func (s *Scratch) Reset() {
	s.i32Used, s.i64Used, s.bUsed = 0, 0, 0
}

// grownCap returns the backing-array capacity for a carve-off that
// needs `need` elements when the current capacity is `have`: at least
// double, so a sequence of carve-offs reallocates O(log total) times
// rather than once per carve-off (growing to exactly `need` made every
// subsequent carve-off re-copy all live buffers — quadratic).
func grownCap(have, need int) int {
	c := 2 * have
	if c < need {
		c = need
	}
	return c
}

// Int32 returns an uninitialized length-n buffer valid until Reset.
func (s *Scratch) Int32(n int) []int32 {
	if s.i32Used+n > len(s.i32) {
		grown := make([]int32, grownCap(len(s.i32), s.i32Used+n))
		// Earlier buffers from this arena are still live; keep them.
		copy(grown, s.i32[:s.i32Used])
		s.i32 = grown
	}
	b := s.i32[s.i32Used : s.i32Used+n : s.i32Used+n]
	s.i32Used += n
	return b
}

// Int64 returns an uninitialized length-n buffer valid until Reset.
func (s *Scratch) Int64(n int) []int64 {
	if s.i64Used+n > len(s.i64) {
		grown := make([]int64, grownCap(len(s.i64), s.i64Used+n))
		copy(grown, s.i64[:s.i64Used])
		s.i64 = grown
	}
	b := s.i64[s.i64Used : s.i64Used+n : s.i64Used+n]
	s.i64Used += n
	return b
}

// Bool returns an uninitialized length-n buffer valid until Reset.
func (s *Scratch) Bool(n int) []bool {
	if s.bUsed+n > len(s.bools) {
		grown := make([]bool, grownCap(len(s.bools), s.bUsed+n))
		copy(grown, s.bools[:s.bUsed])
		s.bools = grown
	}
	b := s.bools[s.bUsed : s.bUsed+n : s.bUsed+n]
	s.bUsed += n
	return b
}

// Attach returns the per-worker value stored under key, constructing it
// with mk on first use. Attached values persist across Reset and across
// stages (via the pool free list); they are how workers keep expensive
// reusable structures — e.g. a Dijkstra arc builder — alive between
// items.
func (s *Scratch) Attach(key string, mk func() any) any {
	if s.attach == nil {
		s.attach = make(map[string]any, 2)
	}
	v, ok := s.attach[key]
	if !ok {
		v = mk()
		s.attach[key] = v
	}
	return v
}
