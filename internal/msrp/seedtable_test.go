package msrp

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"msrp/internal/engine"
	"msrp/internal/graph"
	"msrp/internal/rp"
	"msrp/internal/ssrp"
	"msrp/internal/xrand"
)

// buildSeedTable runs §8.2.1 on its own for the tests: every source's
// shard enumerated on the pool, then the source-order merge. The solve
// runs the same two steps, with the enumeration pipelined behind each
// source's build.
func buildSeedTable(ctx context.Context, sh *ssrp.Shared, perSrc []*ssrp.PerSource, ctr *Centers) (*seedRows, error) {
	ct := newHubTable(sh.G.NumVertices(), ctr.List, ctr.Tree, ctr.Anc)
	seed := newSeedRows(sh.List, ctr)
	shards := make([][]seedOffer, len(perSrc))
	if err := sh.Pool.RunScratchCtx(ctx, len(perSrc), func(i int, sc *engine.Scratch) {
		shards[i] = buildSeedShard(perSrc[i], ctr, ct, seed, sc)
	}); err != nil {
		return nil, err
	}
	seed.merge(shards)
	return seed, nil
}

// seedSetup replicates the SolveShared stages up to the §8.2.1 seed
// cells at the given parallelism, keeping every source's path state.
func seedSetup(t *testing.T, g *graph.Graph, sources []int32, p Params) (*ssrp.Shared, *Centers, []*ssrp.PerSource, *seedRows) {
	t.Helper()
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
	seed, err := buildSeedTable(context.Background(), sh, perSrc, ctr)
	if err != nil {
		t.Fatal(err)
	}
	return sh, ctr, perSrc, seed
}

// TestSeedTableSequentialVsSharded asserts the sharded §8.2.1 build's
// core invariant: because the merge takes a commutative, idempotent
// minimum, the merged cells are identical for every worker count —
// here on the skewed path+star family where per-source work differs by
// orders of magnitude and idle workers keep claiming items past a
// stalled heavy one.
func TestSeedTableSequentialVsSharded(t *testing.T) {
	g := graph.PathStarMix(xrand.New(9), 120, 40, 24)
	// Deep path sources (heavy) mixed with star leaves (trivial).
	sources := []int32{119, 90, 60, 120, 125, 130, 135, 140}
	at := func(par int) *seedRows {
		p := testParams(41)
		p.Parallelism = par
		_, _, _, seed := seedSetup(t, g, sources, p)
		return seed
	}

	want := at(1)
	if want.count == 0 {
		t.Fatal("sequential seed cells are all empty — workload enumerates no small paths")
	}
	for _, par := range []int{2, 8} {
		got := at(par)
		if got.count != want.count {
			t.Fatalf("Parallelism=%d: %d finite cells, sequential has %d", par, got.count, want.count)
		}
		if !slices.Equal(got.off, want.off) {
			t.Fatalf("Parallelism=%d: cell layout differs from sequential", par)
		}
		for ci := range want.cells {
			if !slices.Equal(got.cells[ci], want.cells[ci]) {
				t.Fatalf("Parallelism=%d: center position %d cells %v, sequential %v", par, ci, got.cells[ci], want.cells[ci])
			}
		}
	}
}

// keyedSeedTable is a test-only copy of the keyed §8.2.1 enumeration
// the seed cells replaced: every offer (c, r, e) → w of every source's
// small paths, with e anywhere on the canonical s→r path, kept at its
// minimum in a map.
func keyedSeedTable(perSrc []*ssrp.PerSource, ctr *Centers) map[[3]int32]int32 {
	keyed := map[[3]int32]int32{}
	for _, ps := range perSrc {
		for _, r := range ps.Sh.List {
			if r == ps.S || !ps.Ts.Reachable(r) {
				continue
			}
			edges := ps.Ts.PathEdgesTo(r)
			for i := ps.Small.NearStart(r); i < ps.Ts.Dist[r]; i++ {
				if ps.Small.Value(r, int(i)) >= rp.Inf {
					continue
				}
				path := ps.Small.PathVertices(r, int(i))
				if path == nil {
					continue
				}
				last := len(path) - 1
				for pos, c := range path[:last] {
					if !ctr.IsCenter(c) {
						continue
					}
					key, w := [3]int32{c, r, edges[i]}, int32(last-pos)
					if old, ok := keyed[key]; !ok || w < old {
						keyed[key] = w
					}
				}
			}
		}
	}
	return keyed
}

// TestSeedRowsMatchKeyedTable diffs the seed cells against the keyed
// enumeration they replaced, on every pipeline family and on E8's
// n=300 graph at paper constants, at P ∈ {1, 2}. Each center's block
// must hold one row per landmark as long as G_c's window, min(budget,
// |cr|); the keyed minimum of every G_c-window key (c, r, e_i) must
// equal cell i of its row; and every finite cell must have such a key.
// Keys outside the windows are the offers the cells drop.
func TestSeedRowsMatchKeyedTable(t *testing.T) {
	type row struct {
		name    string
		g       *graph.Graph
		sources []int32
		p       Params
	}
	var rows []row
	for _, f := range pipelineFamilies() {
		rows = append(rows, row{f.name, f.g, f.sources, testParams(77)})
	}
	rows = append(rows, row{"random-300", graph.RandomConnected(xrand.New(300), 300, 1200), []int32{0, 75, 150, 225}, DefaultParams()})
	for _, f := range rows {
		for _, par := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/P=%d", f.name, par), func(t *testing.T) {
				p := f.p
				p.Parallelism = par
				sh, ctr, perSrc, seed := seedSetup(t, f.g, f.sources, p)
				keyed := keyedSeedTable(perSrc, ctr)
				inWindow := 0
				for ci, c := range ctr.List {
					tc, budget := ctr.Tree[c], ctr.Budget(ctr.Priority(c))
					for k, r := range sh.List {
						cells := seed.row(int32(ci), int32(k))
						want := int32(0)
						if r != c && tc.Reachable(r) {
							want = min(budget, tc.Dist[r])
						}
						if int32(len(cells)) != want {
							t.Fatalf("(c=%d, r=%d): %d cells, G_c's window has %d edges", c, r, len(cells), want)
						}
						for i, cell := range cells {
							e := tc.EdgeAt(r, int32(i))
							w, ok := keyed[[3]int32{c, r, e}]
							switch {
							case ok && cell != w:
								t.Fatalf("(c=%d, r=%d, e=%d): cell %d, keyed minimum %d", c, r, e, cell, w)
							case !ok && cell != rp.Inf:
								t.Fatalf("(c=%d, r=%d, e=%d): finite cell %d has no keyed offer", c, r, e, cell)
							case ok:
								inWindow++
							}
						}
					}
				}
				if inWindow != seed.count {
					t.Fatalf("%d window keys, %d finite cells", inWindow, seed.count)
				}
				if inWindow == 0 {
					t.Fatal("no keyed offer falls in a G_c window")
				}
				t.Logf("%d of %d keyed offers fall in a G_c window", inWindow, len(keyed))
			})
		}
	}
}
