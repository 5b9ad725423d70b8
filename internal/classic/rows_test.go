package classic

import (
	"fmt"
	"testing"

	"msrp/internal/bfs"
	"msrp/internal/graph"
	"msrp/internal/rp"
	"msrp/internal/sample"
	"msrp/internal/xrand"
)

// rowsFromTargets runs Rows with witnesses for the given targets,
// building each target's BFS tree.
func rowsFromTargets(g *graph.Graph, ts *bfs.Tree, targets []int32) (map[int32][]int32, map[int32][]Witness, map[int32]*bfs.Tree) {
	trees := make(map[int32]*bfs.Tree, len(targets))
	for _, r := range targets {
		if trees[r] == nil {
			trees[r] = bfs.New(g, int(r))
		}
	}
	lens := make(map[int32][]int32)
	wits := make(map[int32][]Witness)
	Rows(g, ts, targets, trees, lens, wits)
	return lens, wits, trees
}

// diffRowsAgainstPair checks Rows' output for every target against
// PairWitness: the same rows (none for the source and unreachable
// targets), equal lengths entry by entry, and every finite witness
// expanding into a replacement path CheckReplacementPath accepts at
// that length. A witness that wins a run of entries of one row (on a
// cycle, the whole row) is expanded and checked once; the run's later
// entries, equal in length, must avoid their own edge, which the
// path's edge marks answer. It returns the number of finite entries
// checked.
func diffRowsAgainstPair(t *testing.T, g *graph.Graph, ts *bfs.Tree, targets []int32) int {
	t.Helper()
	s := ts.Root
	lens, wits, trees := rowsFromTargets(g, ts, targets)
	// path is the last witness expanded; once a second entry shares
	// it, onPath marks its edges with the current stamp.
	var path []int32
	onPath := make([]int, g.NumEdges())
	stamp, marked := 0, false
	finite := 0
	for _, r := range targets {
		want, _ := PairWitness(g, ts, trees[r], r)
		got, gotW := lens[r], wits[r]
		if (want == nil) != (got == nil) || len(got) != len(want) || len(gotW) != len(want) {
			t.Fatalf("s=%d r=%d: Rows gave %d lengths and %d witnesses, Pair %d lengths (nil %v)", s, r, len(got), len(gotW), len(want), want == nil)
		}
		if want == nil {
			continue
		}
		edges := ts.PathEdgesTo(r)
		for i, w := range want {
			if got[i] != w {
				t.Fatalf("s=%d r=%d i=%d: Rows %d, Pair %d", s, r, i, got[i], w)
			}
			if w == rp.Inf {
				if gotW[i].V >= 0 {
					t.Fatalf("s=%d r=%d i=%d: witness %+v on an Inf entry", s, r, i, gotW[i])
				}
				continue
			}
			finite++
			if i > 0 && gotW[i] == gotW[i-1] && got[i-1] == w {
				if !marked {
					stamp, marked = stamp+1, true
					for j := 0; j+1 < len(path); j++ {
						id, _ := g.EdgeID(int(path[j]), int(path[j+1]))
						onPath[id] = stamp
					}
				}
				if onPath[edges[i]] == stamp {
					t.Fatalf("s=%d r=%d i=%d: witness %+v's path uses the avoided edge", s, r, i, gotW[i])
				}
				continue
			}
			path, marked = gotW[i].BuildPath(ts, trees[r]), false
			if err := rp.CheckReplacementPath(g, path, s, r, edges[i], w); err != nil {
				t.Fatalf("s=%d r=%d i=%d: witness %+v: %v", s, r, i, gotW[i], err)
			}
		}
	}
	return finite
}

// allVertices returns 0 … n−1, the source among them.
func allVertices(n int) []int32 {
	vs := make([]int32, n)
	for i := range vs {
		vs[i] = int32(i)
	}
	return vs
}

// TestRowsMatchPair diffs the one-pass rows against PairWitness for
// every target (the source itself included) of several sources: random
// graphs, a long cycle, square and thin grids, a caterpillar, a
// barbell whose bridges give Inf entries, and a sparse disconnected
// G(n, m) with unreachable targets. Lengths must be equal; witnesses
// may differ from Pair's on ties, so each finite one is expanded and
// machine-checked instead.
func TestRowsMatchPair(t *testing.T) {
	rng := xrand.New(20261019)
	families := []struct {
		name    string
		g       *graph.Graph
		sources int
	}{
		{"random-200-800", graph.RandomConnected(rng, 200, 800), 4},
		{"random-300-1200", graph.RandomConnected(rng, 300, 1200), 3},
		{"cycle-1200", graph.Cycle(1200), 1},
		{"grid-20x20", graph.Grid(20, 20), 3},
		{"grid-4x300", graph.Grid(4, 300), 1},
		{"caterpillar-300-3", graph.Caterpillar(300, 3), 2},
		{"barbell-30-20", graph.Barbell(30, 20), 3},
		{"gnm-300-240", graph.GNM(rng, 300, 240), 4},
	}
	for _, f := range families {
		t.Run(f.name, func(t *testing.T) {
			n := f.g.NumVertices()
			targets := allVertices(n)
			finite := 0
			for k := 0; k < f.sources; k++ {
				s := int32(k * n / f.sources)
				finite += diffRowsAgainstPair(t, f.g, bfs.New(f.g, int(s)), targets)
			}
			t.Logf("%d finite entries matched and certified", finite)
		})
	}
}

// TestRowsTargetSubset: targets need not cover the graph, repeats are
// harmless, and only the named reachable targets get rows.
func TestRowsTargetSubset(t *testing.T) {
	g := graph.RandomConnected(xrand.New(5), 60, 150)
	ts := bfs.New(g, 7)
	targets := []int32{7, 3, 50, 3, 22, 59}
	lens, wits, _ := rowsFromTargets(g, ts, targets)
	if len(lens) != 4 || len(wits) != 4 {
		t.Fatalf("got %d rows and %d witness rows, want 4 each", len(lens), len(wits))
	}
	if lens[7] != nil {
		t.Fatal("the source got a row")
	}
	diffRowsAgainstPair(t, g, ts, targets)

	// Without a witness map only the lengths are filled.
	lens = make(map[int32][]int32)
	trees := map[int32]*bfs.Tree{3: bfs.New(g, 3)}
	Rows(g, ts, []int32{3}, trees, lens, nil)
	if want := Pair(g, ts, trees[3], 3); fmt.Sprint(lens[3]) != fmt.Sprint(want) {
		t.Fatalf("untracked row %v, want %v", lens[3], want)
	}
}

// fuzzRowsGraph decodes fuzz bytes into a small simple graph, connected
// or not: the first byte picks n ∈ [2, 24], each following byte pair
// proposes an edge (self-loops and duplicates skipped). It returns nil
// for inputs too short to name n.
func fuzzRowsGraph(data []byte) *graph.Graph {
	if len(data) == 0 {
		return nil
	}
	n := 2 + int(data[0]%23)
	b := graph.NewBuilder(n)
	seen := make(map[[2]int]bool)
	for i := 1; i+1 < len(data) && len(seen) < 4*n; i += 2 {
		u, v := int(data[i])%n, int(data[i+1])%n
		if u > v {
			u, v = v, u
		}
		if u == v || seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		if err := b.AddEdge(u, v); err != nil {
			return nil
		}
	}
	return b.MustBuild()
}

// FuzzRowsMatchPair diffs the one-pass rows against Pair on arbitrary
// small graphs, connected or not: the source is picked by srcSel and
// the targets are the vertices whose bit is set in mask (all of them
// when mask is 0). Lengths must match Pair's entry by entry and every
// finite witness must expand into a certified replacement path.
func FuzzRowsMatchPair(f *testing.F) {
	f.Add([]byte{5, 0, 1, 1, 2, 2, 3, 3, 4, 4, 0}, uint8(0), uint32(0))
	f.Add([]byte{3, 0, 1, 1, 2, 2, 3}, uint8(1), uint32(0b1011))                    // path: bridges everywhere
	f.Add([]byte{9, 0, 1, 1, 2, 2, 0, 4, 5, 5, 6, 6, 4, 6, 7}, uint8(4), uint32(0)) // two components
	f.Add([]byte{12, 0, 1, 0, 2, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 2, 6, 6, 7, 7, 8, 8, 0}, uint8(2), uint32(0x1f0f))
	f.Fuzz(func(t *testing.T, data []byte, srcSel uint8, mask uint32) {
		g := fuzzRowsGraph(data)
		if g == nil {
			t.Skip()
		}
		n := g.NumVertices()
		var targets []int32
		for v := 0; v < n; v++ {
			if mask == 0 || mask&(1<<uint(v%32)) != 0 {
				targets = append(targets, int32(v))
			}
		}
		ts := bfs.New(g, int(srcSel)%n)
		diffRowsAgainstPair(t, g, ts, targets)
	})
}

// BenchmarkLandmarkRows times the one-pass rows against one PairWitness
// per target, both tracked, for the targets a lazy per-source build
// asks for: the landmark family of a σ = 8 instance at paper constants
// (sources evenly spaced), seen from source 0. Target trees are built
// outside the timer.
func BenchmarkLandmarkRows(b *testing.B) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"random-200-800", graph.RandomConnected(xrand.New(200), 200, 800)},
		{"random-300-1200", graph.RandomConnected(xrand.New(300), 300, 1200)},
		{"cycle-1200", graph.Cycle(1200)},
		{"grid-4x300", graph.Grid(4, 300)},
	}
	const sigma = 8
	for _, gr := range graphs {
		g := gr.g
		n := g.NumVertices()
		sources := make([]int32, sigma)
		for i := range sources {
			sources[i] = int32(i * n / sigma)
		}
		targets := sample.New(xrand.New(1), n, sigma, 1, sources).Union()
		ts := bfs.New(g, 0)
		trees := make(map[int32]*bfs.Tree, len(targets))
		for _, r := range targets {
			trees[r] = bfs.New(g, int(r))
		}
		b.Run(gr.name+"/rows", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				Rows(g, ts, targets, trees, make(map[int32][]int32, len(targets)), make(map[int32][]Witness, len(targets)))
			}
		})
		b.Run(gr.name+"/pair", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				for _, r := range targets {
					_, _ = PairWitness(g, ts, trees[r], r)
				}
			}
		})
	}
}
