package classic

import (
	"testing"

	"msrp/internal/bfs"
	"msrp/internal/graph"
	"msrp/internal/naive"
	"msrp/internal/rp"
	"msrp/internal/xrand"
)

// verifyPair checks the classical algorithm against per-edge BFS for
// one (s, t) pair.
func verifyPair(t *testing.T, g *graph.Graph, s, tt int32) {
	t.Helper()
	ts := bfs.New(g, int(s))
	if !ts.Reachable(tt) || s == tt {
		return
	}
	ttree := bfs.New(g, int(tt))
	got := Pair(g, ts, ttree, tt)
	edges := ts.PathEdgesTo(tt)
	if len(got) != len(edges) {
		t.Fatalf("s=%d t=%d: %d lengths for %d edges", s, tt, len(got), len(edges))
	}
	for i, e := range edges {
		want := naive.OnePair(g, s, tt, e)
		if got[i] != want {
			t.Fatalf("s=%d t=%d edge %d (id %d): classic %d, naive %d",
				s, tt, i, e, got[i], want)
		}
	}
}

func TestCycle(t *testing.T) {
	// On a cycle of length n, avoiding any edge of the s-t path forces
	// the long way around: replacement length = n - d(s,t).
	g := graph.Cycle(9)
	for s := int32(0); s < 9; s++ {
		for tt := int32(0); tt < 9; tt++ {
			verifyPair(t, g, s, tt)
		}
	}
}

func TestPathAllBridges(t *testing.T) {
	g := graph.Path(7)
	got := Run(g, 0, 6)
	if len(got) != 6 {
		t.Fatalf("got %d lengths", len(got))
	}
	for i, v := range got {
		if v != rp.Inf {
			t.Fatalf("edge %d: expected Inf on a path graph, got %d", i, v)
		}
	}
}

func TestGrid(t *testing.T) {
	g := graph.Grid(4, 5)
	corners := []int32{0, 4, 15, 19, 7, 12}
	for _, s := range corners {
		for _, tt := range corners {
			verifyPair(t, g, s, tt)
		}
	}
}

func TestBarbellBridge(t *testing.T) {
	// The bridge edges admit no replacement; clique edges do.
	g := graph.Barbell(4, 3)
	s, tt := int32(0), int32(g.NumVertices()-1)
	verifyPair(t, g, s, tt)
	got := Run(g, s, tt)
	sawInf, sawFinite := false, false
	for _, v := range got {
		if v == rp.Inf {
			sawInf = true
		} else {
			sawFinite = true
		}
	}
	if !sawInf || !sawFinite {
		t.Fatalf("barbell should mix bridges and replaceable edges: %v", got)
	}
}

func TestRandomGraphsExhaustive(t *testing.T) {
	rng := xrand.New(7)
	for trial := 0; trial < 12; trial++ {
		n := 20 + rng.Intn(30)
		m := n + rng.Intn(2*n)
		g := graph.RandomConnected(rng, n, m)
		s := int32(rng.Intn(n))
		for tt := int32(0); tt < int32(n); tt++ {
			verifyPair(t, g, s, tt)
		}
	}
}

func TestSparseDisconnected(t *testing.T) {
	// Disconnected graph: pairs across components are skipped, pairs
	// within a component still verified.
	b := graph.NewBuilder(8)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {4, 5}, {5, 6}, {6, 4}, {4, 7}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g := b.MustBuild()
	if got := Run(g, 0, 5); got != nil {
		t.Fatalf("cross-component pair returned %v", got)
	}
	for s := int32(4); s <= 7; s++ {
		for tt := int32(4); tt <= 7; tt++ {
			verifyPair(t, g, s, tt)
		}
	}
}

func TestUnreachableAndSelfPair(t *testing.T) {
	g := graph.Path(3)
	ts := bfs.New(g, 0)
	tt := bfs.New(g, 0)
	if got := Pair(g, ts, tt, 0); got != nil {
		t.Fatalf("self pair returned %v", got)
	}
}

func TestWrongTreePanics(t *testing.T) {
	g := graph.Path(3)
	ts := bfs.New(g, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when tt.Root != t")
		}
	}()
	Pair(g, ts, ts, 2)
}

func TestSSRPByPairsMatchesNaive(t *testing.T) {
	rng := xrand.New(3)
	for trial := 0; trial < 6; trial++ {
		n := 15 + rng.Intn(20)
		g := graph.RandomConnected(rng, n, n+rng.Intn(n))
		s := int32(rng.Intn(n))
		got := SSRPByPairs(g, s)
		want := naive.SSRP(g, s)
		if d := rp.Diff(want, got); d != "" {
			t.Fatalf("trial %d: %s", trial, d)
		}
	}
}

func TestCompleteGraph(t *testing.T) {
	// K_n: every replacement path has length 2 (detour via any third
	// vertex).
	g := graph.Complete(6)
	for s := int32(0); s < 6; s++ {
		for tt := int32(0); tt < 6; tt++ {
			if s == tt {
				continue
			}
			got := Run(g, s, tt)
			if len(got) != 1 || got[0] != 2 {
				t.Fatalf("K6 %d->%d: %v, want [2]", s, tt, got)
			}
		}
	}
}

func TestHighDiameterCycleChords(t *testing.T) {
	rng := xrand.New(11)
	g := graph.CycleWithChords(rng, 40, 6)
	for trial := 0; trial < 10; trial++ {
		s := int32(rng.Intn(40))
		tt := int32(rng.Intn(40))
		verifyPair(t, g, s, tt)
	}
}

func BenchmarkPairSparse(b *testing.B) {
	g := graph.RandomConnected(xrand.New(1), 2000, 8000)
	ts := bfs.New(g, 0)
	// Pick the farthest vertex for a long path.
	far := int32(0)
	for v := int32(0); v < 2000; v++ {
		if ts.Dist[v] > ts.Dist[far] {
			far = v
		}
	}
	tt := bfs.New(g, int(far))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Pair(g, ts, tt, far)
	}
}

func TestWitnessPathsAreValid(t *testing.T) {
	// Every finite witness must expand into a real path: starts at s,
	// ends at t, consecutive vertices adjacent, avoids the failed edge,
	// length equals the reported replacement length, and no vertex
	// repeats (a minimal walk is simple).
	rng := xrand.New(31)
	for trial := 0; trial < 8; trial++ {
		n := 20 + rng.Intn(30)
		g := graph.RandomConnected(rng, n, n+rng.Intn(2*n))
		s := int32(rng.Intn(n))
		ts := bfs.New(g, int(s))
		for tt := int32(0); tt < int32(n); tt++ {
			if tt == s {
				continue
			}
			ttree := bfs.New(g, int(tt))
			lens, wits := PairWitness(g, ts, ttree, tt)
			edges := ts.PathEdgesTo(tt)
			for i, l := range lens {
				if l == rp.Inf {
					if wits[i].V >= 0 {
						t.Fatalf("witness present for Inf entry")
					}
					continue
				}
				path := wits[i].BuildPath(ts, ttree)
				if path[0] != s || path[len(path)-1] != tt {
					t.Fatalf("witness path endpoints %d..%d", path[0], path[len(path)-1])
				}
				if int32(len(path)-1) != l {
					t.Fatalf("witness path length %d != reported %d", len(path)-1, l)
				}
				seen := map[int32]bool{}
				for _, v := range path {
					if seen[v] {
						t.Fatalf("witness path not simple: %v", path)
					}
					seen[v] = true
				}
				for j := 0; j+1 < len(path); j++ {
					id, ok := g.EdgeID(int(path[j]), int(path[j+1]))
					if !ok {
						t.Fatalf("non-adjacent step %d-%d", path[j], path[j+1])
					}
					if id == edges[i] {
						t.Fatalf("witness path uses the avoided edge")
					}
				}
			}
		}
	}
}
