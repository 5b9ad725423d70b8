package ssrp

import (
	"fmt"

	"msrp/internal/bfs"
	"msrp/internal/engine"
	"msrp/internal/graph"
	"msrp/internal/lca"
	"msrp/internal/rp"
	"msrp/internal/sample"
	"msrp/internal/xrand"
)

// Shared holds the preprocessing common to every source: the landmark
// family, one BFS tree and ancestry index per landmark, and the derived
// distance thresholds. It corresponds to the paper's §5 preliminaries.
type Shared struct {
	G       *graph.Graph
	Sources []int32
	Params  Params

	// X is the suffix unit √(n/σ)·log n (scaled); NearLimit = 2X.
	X         float64
	NearLimit float64
	// nearEdgeCap is the number of path positions with distance-from-
	// target strictly below NearLimit (i.e. max near edges per target).
	nearEdgeCap int

	// Landmarks is the leveled family L_0 … L_K; List its sorted union.
	Landmarks *sample.Levels
	List      []int32
	// levelPos[k] holds the List positions of L_k's members, in L_k's
	// order: the combine scan reads its per-call landmark view by List
	// position.
	levelPos [][]int32

	// Tree and Anc index landmark BFS trees/ancestries by vertex id.
	Tree map[int32]*bfs.Tree
	Anc  map[int32]*lca.Ancestry

	// Pool is the engine worker pool shared by every parallel stage of
	// this instance, sized by Params.Parallelism. Its scratch free list
	// carries per-worker buffers from stage to stage.
	Pool *engine.Pool

	rng *xrand.RNG
	// derived is the frozen split handed out by DeriveRNG; a stored
	// value (not the live rng) so DeriveRNG is idempotent — repeated
	// solves over one Shared sample identical center families.
	derived xrand.RNG
}

// NewShared runs the source-independent preprocessing for a σ-source
// instance: samples the landmark family with the paper's probabilities
// and builds a BFS tree plus ancestry index for every landmark.
// Cost: Õ(m√(nσ)).
func NewShared(g *graph.Graph, sources []int32, p Params) (*Shared, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := g.NumVertices()
	if n == 0 {
		return nil, fmt.Errorf("%w: empty graph", ErrBadParams)
	}
	if len(sources) == 0 {
		return nil, fmt.Errorf("%w: no sources", ErrBadParams)
	}
	seen := make(map[int32]struct{}, len(sources))
	for _, s := range sources {
		if s < 0 || int(s) >= n {
			return nil, fmt.Errorf("%w: source %d out of range [0,%d)", ErrBadParams, s, n)
		}
		if _, dup := seen[s]; dup {
			return nil, fmt.Errorf("%w: duplicate source %d", ErrBadParams, s)
		}
		seen[s] = struct{}{}
	}
	sigma := len(sources)

	sh := &Shared{
		G:       g,
		Sources: append([]int32(nil), sources...),
		Params:  p,
		Pool:    engine.New(p.Parallelism),
		rng:     xrand.New(p.Seed),
	}
	sh.X = p.suffixUnit(n, sigma)
	sh.NearLimit = 2 * sh.X
	if p.ExhaustiveNear {
		// Every edge near, every replacement path "small".
		sh.NearLimit = float64(n + 1)
		sh.X = sh.NearLimit / 2
	}
	sh.nearEdgeCap = intCeil(sh.NearLimit) - 1
	if sh.nearEdgeCap < 1 {
		sh.nearEdgeCap = 1
	}

	sh.Landmarks = sample.New(sh.rng.Split(), n, sigma, p.SampleBoost, sh.Sources)
	sh.derived = *sh.rng.Split()
	sh.List = sh.Landmarks.Union()
	sh.levelPos = make([][]int32, sh.Landmarks.MaxK+1)
	for k := range sh.levelPos {
		level := sh.Landmarks.Level(k)
		pos := make([]int32, len(level))
		j := 0
		for i, r := range level { // both lists are sorted
			for sh.List[j] != r {
				j++
			}
			pos[i] = int32(j)
		}
		sh.levelPos[k] = pos
	}

	forest := bfs.NewForest(g, sh.List, sh.Pool)
	sh.Tree = forest.Trees
	sh.Anc = BuildAncestries(g, sh.List, sh.Tree, sh.Pool)
	return sh, nil
}

// BuildAncestries constructs one ancestry index per root, sharded
// across the pool (roots are independent, each O(n)). Shared here and
// by the §8 center family.
func BuildAncestries(g *graph.Graph, roots []int32, trees map[int32]*bfs.Tree, pool *engine.Pool) map[int32]*lca.Ancestry {
	built := make([]*lca.Ancestry, len(roots))
	pool.Run(len(roots), func(i int) {
		built[i] = lca.NewAncestry(g, trees[roots[i]])
	})
	anc := make(map[int32]*lca.Ancestry, len(roots))
	for i, r := range roots {
		anc[r] = built[i]
	}
	return anc
}

// Sigma returns the number of sources σ.
func (sh *Shared) Sigma() int { return len(sh.Sources) }

// DeriveRNG returns a fresh deterministic generator derived from the
// instance seed; the MSRP layer uses it to sample its center family
// independently of the landmark draws. Every call returns a copy of
// the same frozen stream, so repeated solves over one Shared (the
// Oracle's Warm path) stay bit-identical.
func (sh *Shared) DeriveRNG() *xrand.RNG {
	c := sh.derived
	return &c
}

// NewStats exposes the landmark-size snapshot for callers outside the
// package (the MSRP solver shares the Stats shape).
func (sh *Shared) NewStats() *Stats { return sh.newStats() }

// farBand classifies a path edge at the given distance-from-target into
// a far band k (distance ∈ [2^{k+1}X, 2^{k+2}X)), or returns -1 when
// the edge is near (distance < 2X). Bands are clamped to the sampled
// level range.
func (sh *Shared) farBand(distFromT int32) int {
	d := float64(distFromT)
	if d < sh.NearLimit {
		return -1
	}
	k := 0
	threshold := sh.NearLimit * 2 // upper edge of band 0
	for d >= threshold && k < sh.Landmarks.MaxK {
		k++
		threshold *= 2
	}
	return k
}

// farThreshold returns the Algorithm 3 landmark-distance cutoff
// 2^k · X for band k.
func (sh *Shared) farThreshold(k int) float64 {
	return sh.X * float64(int64(1)<<uint(k))
}

// bandLevel returns the landmark level scanned for band k: L_0 for
// near edges (k < 0, Algorithm 4), L_k for far band k (Algorithm 3),
// or the dense L_0 under the FlatLandmarks ablation.
func (sh *Shared) bandLevel(k int) int {
	if k < 0 || sh.Params.FlatLandmarks {
		return 0
	}
	return k
}

func intCeil(x float64) int {
	i := int(x)
	if float64(i) < x {
		i++
	}
	return i
}

// Stats aggregates observability counters for the experiment harness
// (E3 landmark sizes, E9 auxiliary graph sizes).
type Stats struct {
	// Landmark family.
	LevelSizes []int
	UnionSize  int

	// §7.1 auxiliary graph (per source, summed over sources).
	AuxNodes int64
	AuxArcs  int64

	// Combine-stage work counters (candidate scans).
	FarScans       int64
	NearLargeScans int64

	// Output volume.
	Queries int64
}

// newStats snapshots the landmark sizes.
func (sh *Shared) newStats() *Stats {
	st := &Stats{UnionSize: len(sh.List)}
	for k := 0; k <= sh.Landmarks.MaxK; k++ {
		st.LevelSizes = append(st.LevelSizes, sh.Landmarks.Size(k))
	}
	return st
}

// inf is a local alias to keep expressions short.
const inf = rp.Inf
