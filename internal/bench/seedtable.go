package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"msrp/internal/graph"
	"msrp/internal/msrp"
	"msrp/internal/rp"
	"msrp/internal/xrand"
)

// SeedTableInstance is the E13 workload: a seed-table-heavy, maximally
// skewed σ-source family. The graph is a chorded path whose head also
// hubs a star; half the sources sit deep on the path (Θ(n)-long
// canonical paths, a full complement of §8.2.1 small paths), half on
// star leaves (depth-1 trees, almost no work). Suffix lengths per
// source therefore vary as wildly as in Chechik–Magen-style SSRP
// preprocessing, which is exactly the shape that leaves fixed-chunk
// schedulers idle and that the engine's one-item-at-a-time atomic
// counter keeps balanced — and the long chorded path maximizes the
// seed-table share of the total.
type SeedTableInstance struct {
	G       *graph.Graph
	Sources []int32
	N, M    int
	Sigma   int
}

// NewSeedTableInstance builds the standard E13 instance.
func NewSeedTableInstance(quick bool) SeedTableInstance {
	pathN, chords, leaves := 900, 300, 120
	if quick {
		pathN, chords, leaves = 220, 70, 40
	}
	g := graph.PathStarMix(xrand.New(19), pathN, chords, leaves)
	// Interleave heavy path-tail sources with trivial leaf sources so
	// any contiguous split of the source list mixes both kinds.
	sources := []int32{
		int32(pathN - 1), int32(pathN), // deepest path vertex, first leaf
		int32(3 * pathN / 4), int32(pathN + 1),
		int32(pathN / 2), int32(pathN + 2),
		int32(pathN / 4), int32(pathN + 3),
	}
	return SeedTableInstance{
		G: g, Sources: sources,
		N: g.NumVertices(), M: g.NumEdges(), Sigma: len(sources),
	}
}

// Preprocess runs the full multi-source preprocessing pipeline (the
// paper's Theorem 1 solve — what Oracle.Warm executes) at the given
// engine parallelism.
func (inst SeedTableInstance) Preprocess(parallelism int) ([]*rp.Result, *msrp.Stats, time.Duration, error) {
	p := mild(19, inst.N, inst.Sigma)
	p.Parallelism = parallelism
	var results []*rp.Result
	var stats *msrp.Stats
	var err error
	d := timed(func() {
		var sol *msrp.Solution
		if sol, err = msrp.Solve(inst.G, inst.Sources, p); err == nil {
			results, stats = sol.Results, sol.Stats
		}
	})
	return results, stats, d, err
}

// RunE13 — sharded seed-table build scaling on a skewed family. Sweeps
// Parallelism over the skewed seed-heavy instance and reports the
// preprocess wall clock, speedup over sequential, the bit-identity
// check, and the seed table's size and rehash count (presizing keeps
// rehashes at zero — the E9 cascade, gone). Wall-clock speedup needs
// multicore hardware; on few-core hosts only the identity and rehash
// columns are informative, and the ≥ 1.5× acceptance threshold at
// Parallelism=8 is asserted by TestSeedTablePreprocessSpeedup on
// hosts with ≥ 8 CPUs.
func RunE13(w io.Writer, cfg Config) error {
	inst := NewSeedTableInstance(cfg.Quick)
	fmt.Fprintf(w, "  host: GOMAXPROCS=%d NumCPU=%d\n", runtime.GOMAXPROCS(0), runtime.NumCPU())

	t := NewTable("E13: seed-table shard scaling (skewed σ-source preprocess)",
		"n", "m", "sigma", "parallelism", "preprocess", "speedup", "identical",
		"seed_len", "seed_rehashes")
	var base []*rp.Result
	var baseTime time.Duration
	for _, par := range []int{1, 2, 4, 8} {
		results, stats, d, err := inst.Preprocess(par)
		if err != nil {
			return err
		}
		identical := true
		if par == 1 {
			base, baseTime = results, d
		} else {
			for i := range results {
				if rp.Diff(base[i], results[i]) != "" {
					identical = false
				}
			}
		}
		t.Row(inst.N, inst.M, inst.Sigma, par, d,
			float64(baseTime)/float64(d), identical,
			stats.SeedCount, stats.SeedRehashes)
	}
	t.Print(w)
	return nil
}
