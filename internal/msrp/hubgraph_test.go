package msrp

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"testing"

	"msrp/internal/engine"
	"msrp/internal/lca"
	"msrp/internal/naive"
	"msrp/internal/rp"
	"msrp/internal/ssrp"
)

// TestHubGraphRowsExact checks the §8.2.2 hub-graph rows directly
// instead of through final answers: every d(c,r,e) for a center c,
// landmark r and edge e on the T_c path to r. Each finite value must be
// sound (not below the brute-force length), expand through the tracked
// parent chains to a walk rp.CheckReplacementPath accepts at exactly
// that length, and — the families run boosted — be exact. So entries
// the assembly never reads, and the walks behind entries that lose its
// min(), are checked too. TestCenterRowsExact checks §8.1's rows.
func TestHubGraphRowsExact(t *testing.T) {
	for _, f := range pipelineFamilies() {
		t.Run(f.name, func(t *testing.T) {
			pv := solveAt(t, f.g, f.sources, 1, true).Prov
			checked := 0
			for _, c := range pv.ctr.List {
				tc, gc := pv.ctr.Tree[c], pv.cl.at(c)
				for _, r := range pv.sh.List {
					if r == c || !tc.Reachable(r) {
						continue
					}
					for _, e := range tc.PathEdgesTo(r) {
						v := gc.dist(r, e)
						if v >= rp.Inf {
							continue
						}
						checked++
						want := naive.OnePair(f.g, c, r, e)
						if v < want {
							t.Fatalf("d(%d,%d,e=%d) = %d is below the true %d", c, r, e, v, want)
						}
						p, err := pv.expandCR(c, r, e)
						if err != nil {
							t.Fatalf("d(%d,%d,e=%d) = %d: %v", c, r, e, v, err)
						}
						if err := rp.CheckReplacementPath(f.g, p, c, r, e, v); err != nil {
							t.Fatalf("d(%d,%d,e=%d) = %d: %v", c, r, e, v, err)
						}
						if v != want {
							t.Errorf("d(%d,%d,e=%d) = %d, want %d", c, r, e, v, want)
						}
					}
				}
			}
			if checked == 0 {
				t.Fatal("no finite hub-graph value to check")
			}
			t.Logf("%d finite hub-graph values checked", checked)
		})
	}
}

// TestHubTableMatchesForests checks both hub tables cell by cell: on
// every family, row(v)[j] of the landmarks' and the centers' table must
// hold hub j's Dist[v] and ParentEdge[v] and v's stamps in hub j's
// ancestry.
func TestHubTableMatchesForests(t *testing.T) {
	for _, f := range pipelineFamilies() {
		t.Run(f.name, func(t *testing.T) {
			sh, err := ssrp.NewShared(f.g, f.sources, testParams(77))
			if err != nil {
				t.Fatal(err)
			}
			ctr := newCenters(sh, sh.DeriveRNG())
			n := f.g.NumVertices()
			for _, fam := range []struct {
				name string
				hubs []int32
				ht   *hubTable
				anc  map[int32]*lca.Ancestry
			}{
				{"landmarks", sh.List, newHubTable(n, sh.List, sh.Tree, sh.Anc), sh.Anc},
				{"centers", ctr.List, newHubTable(n, ctr.List, ctr.Tree, ctr.Anc), ctr.Anc},
			} {
				if len(fam.ht.cells) != n*len(fam.hubs) {
					t.Fatalf("%s: %d cells for %d vertices × %d hubs", fam.name, len(fam.ht.cells), n, len(fam.hubs))
				}
				for v := range int32(n) {
					row := fam.ht.row(v)
					for j, h := range fam.hubs {
						tree := fam.anc[h].Tree()
						tin, tout := fam.anc[h].Stamps(v)
						want := hubCell{dist: tree.Dist[v], edge: tree.ParentEdge[v], tin: tin, tout: tout}
						if row[j] != want {
							t.Fatalf("%s: cell (v=%d, hub %d) = %+v, want %+v", fam.name, v, h, row[j], want)
						}
					}
				}
			}
		})
	}
}

// referenceHubGraph is a test-only copy of the hub-by-hub arc emission
// solveHubGraph replaced: for every hub h, every covered index i and
// every other hub h′, it finds e's child endpoint in T_x and tests
// e ∉ h′h and e ∈ xh′ through h′'s own tree and ancestry. It shares
// only the slot layout and the Dijkstra (finishHubGraph) with the
// solver, none of its tables, buckets or edge-major order.
func referenceHubGraph(spec hubSpec, hubAnc map[int32]*lca.Ancestry, scr *engine.Scratch) *hubGraph {
	g := spec.g
	tree := spec.anc.Tree()
	type hubInfo struct {
		j     int
		h     int32
		node  int32
		base  int32
		hi    int32
		edges []int32
		dist  []int32
		anc   *lca.Ancestry
	}
	var infos []hubInfo
	next := int32(1)
	for j, h := range spec.hubs {
		if h == tree.Root || !tree.Reachable(h) {
			continue
		}
		infos = append(infos, hubInfo{j: j, h: h, node: next, dist: spec.hubTree[h].Dist, anc: hubAnc[h]})
		next++
	}
	for idx := range infos {
		in := &infos[idx]
		l := tree.Dist[in.h]
		in.hi = min(spec.budget, l)
		in.base = next
		next += in.hi
		in.edges = make([]int32, in.hi)
		x := in.h
		for i := l - 1; i >= 0; i-- {
			if i < in.hi {
				in.edges[i] = tree.ParentEdge[x]
			}
			x = tree.Parent[x]
		}
	}
	bld := ssrp.AttachedBuilder(scr, int(next), int(next)*4)
	for _, in := range infos {
		bld.AddArc(0, in.node, tree.Dist[in.h])
	}
	for _, in := range infos {
		for i := range in.hi {
			e := in.edges[i]
			node := in.base + i
			if w, ok := spec.seed.Get(spec.ci, int32(in.j), i); ok {
				bld.AddArc(0, node, w)
			}
			child, _ := tree.ChildEndpoint(g, e)
			for _, in2 := range infos {
				if in2.h == in.h {
					continue
				}
				d := in2.dist[in.h]
				if d < 0 || in2.anc.EdgeOnRootPath(g, e, in.h) {
					continue
				}
				if !spec.anc.IsAncestor(child, in2.h) {
					bld.AddArc(in2.node, node, d)
				} else if i < in2.hi {
					bld.AddArc(in2.base+i, node, d)
				}
			}
		}
	}
	slots := make([]hubSlot, len(spec.hubs))
	for j := range slots {
		slots[j].node = -1
	}
	for _, in := range infos {
		slots[in.j] = hubSlot{node: in.node, base: in.base, hi: in.hi}
	}
	return finishHubGraph(spec, slots, bld, scr)
}

// hubGraphDiff describes the first difference between two solved hub
// graphs ("" when they are identical): sizes, rows, parent chains and
// node decode tables.
func hubGraphDiff(got, want *hubGraph) string {
	switch {
	case got.nodes != want.nodes || got.arcs != want.arcs:
		return fmt.Sprintf("%d nodes, %d arcs; reference %d, %d", got.nodes, got.arcs, want.nodes, want.arcs)
	case (got.prov == nil) != (want.prov == nil):
		return fmt.Sprintf("tracked %v, reference %v", got.prov != nil, want.prov != nil)
	}
	for k := range got.rows {
		if !slices.Equal(got.rows[k], want.rows[k]) {
			return fmt.Sprintf("hub %d row %v, reference %v", k, got.rows[k], want.rows[k])
		}
	}
	if ap, ref := got.prov, want.prov; ap != nil {
		switch {
		case !slices.Equal(ap.parent, ref.parent):
			return "parent chains differ"
		case !slices.Equal(ap.nodeOwn, ref.nodeOwn) || !slices.Equal(ap.nodeIdx, ref.nodeIdx):
			return "node decode tables differ"
		case !maps.Equal(ap.base, ref.base):
			return "block maps differ"
		}
	}
	return ""
}

// TestHubGraphMatchesReference diffs solveHubGraph against the
// hub-by-hub reference emission on every G_c of every family, tracked
// and untracked, with the solver stages run at P ∈ {1, 2}. The arc sets
// must agree in size, and since the Dijkstra breaks ties by node id the
// rows and parent chains must agree bit for bit: this is the test that
// pins the tie-breaking, which TestHubGraphRowsExact (values and walks
// only) does not.
func TestHubGraphMatchesReference(t *testing.T) {
	for _, f := range pipelineFamilies() {
		t.Run(f.name, func(t *testing.T) {
			for _, par := range []int{1, 2} {
				for _, track := range []bool{false, true} {
					label := fmt.Sprintf("P=%d track=%v", par, track)
					p := testParams(77)
					p.Parallelism, p.TrackPaths = par, track
					sh, ctr, _, seed := seedSetup(t, f.g, f.sources, p)
					cl, err := buildCenterLandmark(context.Background(), sh, ctr, seed)
					if err != nil {
						t.Fatal(err)
					}
					lt := newHubTable(f.g.NumVertices(), sh.List, sh.Tree, sh.Anc)
					ref := make([]*hubGraph, len(ctr.List))
					sh.Pool.RunScratch(len(ctr.List), func(ci int, sc *engine.Scratch) {
						ref[ci] = referenceHubGraph(cl.spec(sh, ctr.List[ci], lt, seed), sh.Anc, sc)
					})
					for ci, c := range ctr.List {
						if d := hubGraphDiff(cl.graphs[ci], ref[ci]); d != "" {
							t.Fatalf("%s: G_c of center %d: %s", label, c, d)
						}
					}
				}
			}
		})
	}
}
