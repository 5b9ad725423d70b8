package msrp

import (
	"msrp/internal/bfs"
	"msrp/internal/lca"
	"msrp/internal/sample"
	"msrp/internal/ssrp"
	"msrp/internal/xrand"
)

// Centers is the paper's §8 center family: a second leveled sample
// (same distribution as the landmarks, drawn independently) whose
// members subdivide every source→landmark path into O(log n) intervals.
// A center's priority is the highest level that sampled it; all sources
// are forced into C_0.
type Centers struct {
	Levels *sample.Levels
	List   []int32

	// Tree and Anc index the centers' BFS trees and ancestries.
	Tree map[int32]*bfs.Tree
	Anc  map[int32]*lca.Ancestry

	// budget[k] is the paper's ℓ·2^k·X edge budget for priority-k
	// centers: §8.1 computes d(s,c,e) only for the last budget(k) edges
	// of the s→c path, §8.2 computes d(c,r,e) only for the first
	// budget(k) edges of the c→r path. Lemma 18 guarantees (w.h.p.)
	// that the edges the assembly actually needs fall inside.
	budget []int32

	// index maps a vertex id to its position in List (-1 for
	// non-centers): it picks a center's G_c out of the §8.2.2 fan-out
	// and a center's row out of every §8.1 G_s (the hub graph's dense
	// per-hub slots).
	index []int32
}

// budgetFactor is the paper's "suitably chosen constant ℓ ≥ 2". The
// Lemma 20 triangle argument needs ℓ ≥ 4; 6 leaves slack for the
// boundary cases without changing the asymptotics.
const budgetFactor = 6

// newCenters samples the center family and builds its BFS forest.
func newCenters(sh *ssrp.Shared, rng *xrand.RNG) *Centers {
	g := sh.G
	n := g.NumVertices()
	c := &Centers{
		Levels: sample.New(rng, n, sh.Sigma(), sh.Params.SampleBoost, sh.Sources),
	}
	c.List = c.Levels.Union()
	c.index = make([]int32, n)
	for v := range c.index {
		c.index[v] = -1
	}
	for i, v := range c.List {
		c.index[v] = int32(i)
	}
	forest := bfs.NewForest(g, c.List, sh.Pool)
	c.Tree = forest.Trees
	c.Anc = ssrp.BuildAncestries(g, c.List, c.Tree, sh.Pool)
	c.budget = make([]int32, c.Levels.MaxK+1)
	for k := range c.budget {
		b := int64(budgetFactor * float64(int64(1)<<uint(k)) * sh.X)
		if b < 1 {
			b = 1
		}
		if b > int64(n) {
			b = int64(n)
		}
		c.budget[k] = int32(b)
	}
	return c
}

// Priority returns the center priority of v, or -1 if v is not a
// center.
func (c *Centers) Priority(v int32) int { return c.Levels.MaxLevel(v) }

// IsCenter reports whether v is a center of any priority.
func (c *Centers) IsCenter(v int32) bool { return c.Levels.IsMember(v) }

// Index returns v's position in List, or -1 when v is not a center.
func (c *Centers) Index(v int32) int32 { return c.index[v] }

// Budget returns the per-priority edge budget.
func (c *Centers) Budget(priority int) int32 {
	if priority < 0 {
		return 0
	}
	if priority >= len(c.budget) {
		priority = len(c.budget) - 1
	}
	return c.budget[priority]
}

// intervalsOn decomposes the canonical s→r path (given as its vertex
// sequence) into the paper's Definition 15 intervals. The returned
// slice holds boundary *positions* on the path: strictly increasing,
// starting at 0 (= s) and ending at len(path)-1 (= r). Interior
// boundaries are centers: walking from s the priorities strictly
// ascend, then strictly descend walking on to r (the paper's
// ascending/descending center chains).
func (c *Centers) intervalsOn(path []int32) []int32 {
	last := len(path) - 1
	if last <= 0 {
		return []int32{0}
	}
	boundaries := make([]int32, 0, 8)
	boundaries = append(boundaries, 0)

	// Ascending chain from s (position 0). Sources are centers, so the
	// starting priority is well defined; a non-center start (possible
	// only if callers pass non-source paths) begins at -1.
	best := c.Priority(path[0])
	ascEnd := 0
	for pos := 1; pos < last; pos++ {
		if p := c.Priority(path[pos]); p > best {
			best = p
			ascEnd = pos
			boundaries = append(boundaries, int32(pos))
		}
	}
	// Descending chain from r backwards (strictly increasing priorities
	// when walking r→s, i.e. descending when read s→r), stopping before
	// the ascending chain's end.
	descStart := len(boundaries)
	best = -1
	for pos := last - 1; pos > ascEnd; pos-- {
		if p := c.Priority(path[pos]); p > best {
			best = p
			boundaries = append(boundaries, int32(pos))
		}
	}
	// The descending boundaries were collected right-to-left; reverse
	// them in place so the full list is increasing.
	for i, j := descStart, len(boundaries)-1; i < j; i, j = i+1, j-1 {
		boundaries[i], boundaries[j] = boundaries[j], boundaries[i]
	}
	boundaries = append(boundaries, int32(last))
	return boundaries
}
