package lca

import (
	"testing"

	"msrp/internal/bfs"
	"msrp/internal/graph"
	"msrp/internal/xrand"
)

// naiveIsAncestor walks parent pointers from b to the root.
func naiveIsAncestor(t *bfs.Tree, a, b int32) bool {
	if !t.Reachable(a) || !t.Reachable(b) {
		return false
	}
	for x := b; x >= 0; x = t.Parent[x] {
		if x == a {
			return true
		}
	}
	return false
}

func TestPathGraph(t *testing.T) {
	g := graph.Path(8)
	tr := bfs.New(g, 0)
	anc := NewAncestry(g, tr)
	for a := int32(0); a < 8; a++ {
		for b := int32(0); b < 8; b++ {
			wantAnc := a <= b
			if got := anc.IsAncestor(a, b); got != wantAnc {
				t.Fatalf("IsAncestor(%d,%d) = %v", a, b, got)
			}
		}
	}
}

func TestAgainstNaiveOnRandomGraphs(t *testing.T) {
	rng := xrand.New(1)
	for trial := 0; trial < 15; trial++ {
		g := graph.RandomConnected(rng, 50, 80+rng.Intn(60))
		root := rng.Intn(50)
		tr := bfs.New(g, root)
		anc := NewAncestry(g, tr)
		n := int32(g.NumVertices())
		for a := int32(0); a < n; a++ {
			for b := int32(0); b < n; b++ {
				if got, want := anc.IsAncestor(a, b), naiveIsAncestor(tr, a, b); got != want {
					t.Fatalf("trial %d root %d: IsAncestor(%d,%d) = %v want %v",
						trial, root, a, b, got, want)
				}
			}
		}
	}
}

func TestUnreachableVertices(t *testing.T) {
	b := graph.NewBuilder(5)
	_ = b.AddEdge(0, 1)
	_ = b.AddEdge(1, 2)
	g := b.MustBuild()
	tr := bfs.New(g, 0)
	anc := NewAncestry(g, tr)
	if anc.IsAncestor(0, 3) || anc.IsAncestor(3, 0) || anc.IsAncestor(3, 4) {
		t.Fatal("ancestry with unreachable vertex")
	}
	if !anc.IsAncestor(0, 2) || anc.IsAncestor(2, 0) {
		t.Fatal("reachable pair mis-answered")
	}
}

func TestEdgeOnRootPath(t *testing.T) {
	// Star: every edge is on exactly the path to its leaf.
	g := graph.Star(6)
	tr := bfs.New(g, 0)
	anc := NewAncestry(g, tr)
	for e := 0; e < g.NumEdges(); e++ {
		_, leaf := g.EdgeEndpoints(e)
		for v := int32(1); v < 6; v++ {
			want := v == leaf
			if got := anc.EdgeOnRootPath(g, int32(e), v); got != want {
				t.Fatalf("edge %d target %d: %v want %v", e, v, got, want)
			}
		}
		if anc.EdgeOnRootPath(g, int32(e), 0) {
			t.Fatal("no edge lies on the empty path to the root")
		}
	}
}

func TestEdgeOnRootPathMatchesPathEdges(t *testing.T) {
	rng := xrand.New(2)
	for trial := 0; trial < 10; trial++ {
		g := graph.RandomConnected(rng, 40, 100)
		tr := bfs.New(g, 0)
		anc := NewAncestry(g, tr)
		for v := int32(0); v < int32(g.NumVertices()); v++ {
			onPath := map[int32]bool{}
			for _, e := range tr.PathEdgesTo(v) {
				onPath[e] = true
			}
			for e := int32(0); e < int32(g.NumEdges()); e++ {
				if got := anc.EdgeOnRootPath(g, e, v); got != onPath[e] {
					t.Fatalf("trial %d: edge %d on path to %d: %v want %v",
						trial, e, v, got, onPath[e])
				}
			}
		}
	}
}

func TestNonTreeEdgeNeverOnPath(t *testing.T) {
	g := graph.Cycle(9) // BFS tree omits exactly one cycle edge
	tr := bfs.New(g, 0)
	anc := NewAncestry(g, tr)
	nonTree := int32(-1)
	for e := int32(0); e < int32(g.NumEdges()); e++ {
		if _, ok := tr.ChildEndpoint(g, e); !ok {
			nonTree = e
			break
		}
	}
	if nonTree < 0 {
		t.Fatal("cycle must have a non-tree edge")
	}
	for v := int32(0); v < 9; v++ {
		if anc.EdgeOnRootPath(g, nonTree, v) {
			t.Fatalf("non-tree edge reported on path to %d", v)
		}
	}
}

func BenchmarkBuild(b *testing.B) {
	g := graph.RandomConnected(xrand.New(1), 5000, 20000)
	tr := bfs.New(g, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = NewAncestry(g, tr)
	}
}
