package msrp

import (
	"context"
	"testing"

	"msrp/internal/engine"
	"msrp/internal/graph"
	"msrp/internal/ssrp"
	"msrp/internal/xrand"
)

func engineScratch() *engine.Scratch { return &engine.Scratch{} }

// buildSeedForTest replicates the SolveShared stages up to the §8.2.1
// seed table at the given parallelism and dumps the table to a map.
func buildSeedForTest(t *testing.T, g *graph.Graph, sources []int32, par int) (map[uint64]int32, int, int) {
	t.Helper()
	p := testParams(41)
	p.Parallelism = par
	sh, err := ssrp.NewShared(g, sources, p)
	if err != nil {
		t.Fatal(err)
	}
	ctr := newCenters(sh, sh.DeriveRNG())
	perSrc := make([]*ssrp.PerSource, len(sources))
	for i, s := range sources {
		perSrc[i] = sh.NewPerSource(s)
		perSrc[i].BuildSmallNear()
	}
	seed, rehashes, err := buildSeedTable(context.Background(), sh, perSrc, ctr)
	if err != nil {
		t.Fatal(err)
	}
	dump := make(map[uint64]int32, seed.Len())
	seed.Range(func(key uint64, val int32) bool {
		dump[key] = val
		return true
	})
	if len(dump) != seed.Len() {
		t.Fatalf("Range visited %d entries, Len reports %d", len(dump), seed.Len())
	}
	return dump, seed.Len(), rehashes
}

// TestSeedTableSequentialVsSharded asserts the sharded §8.2.1 build's
// core invariant: because MinPut merges with a commutative, idempotent
// minimum, the merged table's contents are identical for every worker
// count — here on the skewed path+star family where per-source work
// differs by orders of magnitude and idle workers keep claiming items
// past a stalled heavy one.
func TestSeedTableSequentialVsSharded(t *testing.T) {
	g := graph.PathStarMix(xrand.New(9), 120, 40, 24)
	// Deep path sources (heavy) mixed with star leaves (trivial).
	sources := []int32{119, 90, 60, 120, 125, 130, 135, 140}

	want, wantLen, _ := buildSeedForTest(t, g, sources, 1)
	if wantLen == 0 {
		t.Fatal("sequential seed table is empty — workload enumerates no small paths")
	}
	for _, par := range []int{2, 8} {
		got, gotLen, rehashes := buildSeedForTest(t, g, sources, par)
		if gotLen != wantLen {
			t.Fatalf("Parallelism=%d: %d entries, sequential has %d", par, gotLen, wantLen)
		}
		for k, v := range want {
			if gv, ok := got[k]; !ok || gv != v {
				t.Fatalf("Parallelism=%d: key %x = %d,%v, sequential %d", par, k, gv, ok, v)
			}
		}
		if rehashes != 0 {
			t.Errorf("Parallelism=%d: %d rehashes despite presizing", par, rehashes)
		}
	}
}

// TestSeedEstimateCoversActual checks the presizing bound on the
// seed-heavy family and on E8's n=300 graph: it must dominate the real
// per-source entry counts (otherwise shards pay growth rehashes again)
// and stay within 2× of the entries actually enumerated (an estimate
// 36× too large once allocated 14 MB of cuckoo slots per solve).
func TestSeedEstimateCoversActual(t *testing.T) {
	rows := []struct {
		name    string
		g       *graph.Graph
		sources []int32
		p       Params
	}{
		{"path-star-mix", graph.PathStarMix(xrand.New(10), 100, 30, 10), []int32{99, 100}, testParams(43)},
		{"random-300", graph.RandomConnected(xrand.New(300), 300, 1200), []int32{0, 75, 150, 225}, DefaultParams()},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			sh, err := ssrp.NewShared(row.g, row.sources, row.p)
			if err != nil {
				t.Fatal(err)
			}
			ctr := newCenters(sh, sh.DeriveRNG())
			var estimates, entries int
			for _, s := range row.sources {
				ps := sh.NewPerSource(s)
				ps.BuildSmallNear()
				shard := buildSeedShard(ps, ctr, engineScratch())
				est := estimateSeedEntries(ps)
				if shard.Len() > est {
					t.Errorf("source %d: estimate %d below actual %d entries", s, est, shard.Len())
				}
				if shard.Rehashes() != 0 {
					t.Errorf("source %d: shard paid %d rehashes", s, shard.Rehashes())
				}
				estimates += est
				entries += shard.Len()
			}
			if entries == 0 {
				t.Fatal("no seed entries enumerated")
			}
			if estimates > 2*entries {
				t.Errorf("estimates sum to %d for %d entries, more than 2× too large", estimates, entries)
			}
			t.Logf("estimates %d, entries %d", estimates, entries)
		})
	}
}
