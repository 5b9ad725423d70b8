package msrp

import (
	"context"
	"sync"
	"testing"

	"msrp/internal/graph"
	"msrp/internal/ssrp"
	"msrp/internal/xrand"
)

// cancelingSeed wraps a seedReader and cancels a context on the first
// Get, recording which centers were probed — a deterministic mid-run
// cancellation for the §8.2.2 stage. The mutex makes it safe under a
// parallel fan-out.
type cancelingSeed struct {
	inner   seedReader
	cancel  context.CancelFunc
	mu      sync.Mutex
	calls   int
	centers map[int32]bool
}

func (cs *cancelingSeed) Get(key uint64) (int32, bool) {
	cs.mu.Lock()
	cs.calls++
	if cs.calls == 1 {
		cs.cancel()
	}
	cs.centers[int32(key>>(vertexBits+edgeBits))] = true
	cs.mu.Unlock()
	return cs.inner.Get(key)
}
func (cs *cancelingSeed) Len() int     { return cs.inner.Len() }
func (cs *cancelingSeed) Bytes() int64 { return cs.inner.Bytes() }

// TestCenterLandmarkCancellation is the §8.2.2 bugfix pin: the stage
// used to run on a context-blind scheduler, so a cancelled solve still
// paid all |C| per-center Dijkstras. Now a context cancelled mid-stage
// stops the fan-out after the items already in flight — at most one
// center per worker: at P=1 exactly the one center whose build observed
// the cancel, and at P=2 on a 120-center instance (boost 12 makes every
// vertex a center) at most two — and a pre-cancelled context runs
// nothing.
func TestCenterLandmarkCancellation(t *testing.T) {
	for _, tc := range []struct {
		g       *graph.Graph
		workers int
	}{
		{graph.RandomConnected(xrand.New(24), 40, 90), 1},
		{graph.RandomConnected(xrand.New(24), 120, 360), 2},
	} {
		p := testParams(25)
		p.Parallelism = tc.workers
		sh, err := ssrp.NewShared(tc.g, []int32{0, 5}, p)
		if err != nil {
			t.Fatal(err)
		}
		ctr := newCenters(sh, sh.DeriveRNG())
		var perSrc []*ssrp.PerSource
		for _, s := range []int32{0, 5} {
			ps := sh.NewPerSource(s)
			ps.BuildSmallNear()
			perSrc = append(perSrc, ps)
		}
		seed, _, err := buildSeedTable(context.Background(), sh, perSrc, ctr)
		if err != nil {
			t.Fatal(err)
		}

		ctx, cancel := context.WithCancel(context.Background())
		cs := &cancelingSeed{inner: seed, cancel: cancel, centers: map[int32]bool{}}
		if _, err := buildCenterLandmark(ctx, sh, ctr, cs); err != context.Canceled {
			t.Fatalf("P=%d mid-stage cancel: err = %v, want context.Canceled", tc.workers, err)
		}
		if cs.calls == 0 {
			t.Fatalf("P=%d: canceling seed reader was never consulted — instance enumerates no covered edges", tc.workers)
		}
		if len(cs.centers) > tc.workers {
			t.Fatalf("cancelled §8.2.2 stage probed %d of %d centers at P=%d, want at most the %d in flight",
				len(cs.centers), len(ctr.List), tc.workers, tc.workers)
		}

		dead, cancel2 := context.WithCancel(context.Background())
		cancel2()
		if _, err := buildCenterLandmark(dead, sh, ctr, seed); err != context.Canceled {
			t.Fatalf("P=%d pre-cancelled: err = %v, want context.Canceled", tc.workers, err)
		}
		if _, _, err := buildSeedTable(dead, sh, perSrc, ctr); err != context.Canceled {
			t.Fatalf("P=%d pre-cancelled seed build: err = %v, want context.Canceled", tc.workers, err)
		}
	}
}
