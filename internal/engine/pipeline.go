package engine

import "context"

// Cross-stage pipeline scheduling.
//
// The repository's multi-stage fan-outs (the MSRP solve's §8.1
// per-source builds followed by the §8.2.1 seed-shard enumeration) have
// a dependency structure stricter than "n independent items" but looser
// than "stage barrier": item i's stage B needs item i's stage A, and
// nothing else. Running the stages as two Run calls inserts a barrier
// the dependencies never asked for — every item's stage B waits for the
// *slowest* item's stage A, and per-item state produced by stage A for
// stage B (Θ(aux) per item) stays live for all n items at once.
//
// PipelineScratchCtx removes the barrier: items flow through both
// stages as one schedulable unit, executed depth-first (a worker
// finishing item i's stage A immediately runs item i's stage B), and
// claimed one whole item at a time from the same atomic counter as
// RunScratch. Depth-first is deliberate on both axes the barrier
// hurts:
//
//   - Memory: at most one item per worker sits in the "stage A done,
//     stage B pending" window, so state released at the end of stage B
//     peaks at Θ(P·aux) instead of Θ(n·aux).
//   - Locality: item i's stage-A output is still cache-hot when its
//     stage B consumes it.
//
// Deferring stage B to a separate queue could shave the schedule
// further only when per-item stage costs are anti-correlated AND
// claiming order is adversarial; it would cost the memory bound above
// (the A-done/B-pending window would grow without limit). The fused
// schedule keeps the bound and is makespan-optimal whenever any single
// item's A+B chain is the critical path.

// PipelineScratchCtx executes stageA(i) then stageB(i) for every i in
// [0, n), sharded across up to Workers() goroutines with NO barrier
// between the stages across items: stage B of item i may run while
// stage A of item j is still running (or still unclaimed — an idle
// worker claims the next pending item, both stages). Within one item
// the stages run back-to-back on the same worker, each on a freshly
// Reset scratch — stage A hands state to stage B through the item's
// own storage (or scratch attachments), never through scratch
// carve-offs.
//
// Determinism: both stages touch only state owned by index i, so like
// RunScratch the schedule cannot change the output — callers whose
// cross-item reduction is commutative and idempotent (e.g. a MinPut
// merge) get bit-identical results at any worker count.
//
// Cancellation matches RunScratchCtx, with the boundary refined to
// stages: ctx is observed before each item is claimed (so before its
// stage A) and again between its stage A and stage B. On a non-nil
// return some items ran both stages, at most one per worker ran only
// stage A (the item in flight when the cancel landed), and the rest
// ran neither. Stages in flight are never interrupted.
func (p *Pool) PipelineScratchCtx(ctx context.Context, n int, stageA, stageB func(i int, s *Scratch)) error {
	done := ctx.Done()
	p.runScratch(n, done, func(i int, s *Scratch) {
		stageA(i, s)
		if canceled(done) {
			return
		}
		s.Reset()
		stageB(i, s)
	})
	return ctx.Err()
}

// PipelineScratch is PipelineScratchCtx without cancellation.
func (p *Pool) PipelineScratch(n int, stageA, stageB func(i int, s *Scratch)) {
	_ = p.PipelineScratchCtx(context.Background(), n, stageA, stageB)
}
