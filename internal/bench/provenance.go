package bench

import (
	"fmt"
	"io"
	"runtime"

	"msrp/internal/graph"
	"msrp/internal/msrp"
	"msrp/internal/rp"
	"msrp/internal/xrand"
)

// RunE15 — provenance-plane overhead. The σ=16 pipelined solve with
// TrackPaths on vs off: wall time, the bit-identity of lengths (the
// plane observes, never steers), the transient §7.1 path-state peak
// (PeakSeedPathBytes — unchanged by tracking, the snapshot is taken
// between seed enumeration and release), and the *retained*
// ProvenanceBytes the tracked solve pays for reconstruction (witness
// snapshots + answer provenance + §8.1 center rows and witnesses +
// §8.2.2 parent chains + the seed table). The final column is the
// retained-to-peak ratio: what serving concrete paths costs relative
// to the memory the pipelined schedule worked to shed. A sample of
// reconstructed paths is machine-verified as part of the run.
func RunE15(w io.Writer, cfg Config) error {
	n, chords := 600, 120
	if cfg.Quick {
		n, chords = 200, 40
	}
	const sigma = 16
	g := graph.CycleWithChords(xrand.New(31), n, chords)
	sources := make([]int32, sigma)
	for i := range sources {
		sources[i] = int32(i * n / sigma)
	}
	fmt.Fprintf(w, "  host: GOMAXPROCS=%d NumCPU=%d\n", runtime.GOMAXPROCS(0), runtime.NumCPU())

	t := NewTable("E15: provenance plane overhead (σ=16, pipelined solve)",
		"n", "m", "parallelism", "plain", "tracked", "overhead",
		"identical", "peak_seed_bytes", "provenance_bytes", "retained/peak")
	for _, par := range []int{1, 8} {
		p := mild(31, n, sigma)
		p.Parallelism = par

		var plain, tracked *msrp.Solution
		dPlain := timed(func() {
			var err error
			if plain, err = msrp.Solve(g, sources, p); err != nil {
				panic(err)
			}
		})
		p.TrackPaths = true
		dTracked := timed(func() {
			var err error
			if tracked, err = msrp.Solve(g, sources, p); err != nil {
				panic(err)
			}
		})

		identical := "yes"
		for i := range sources {
			if d := rp.Diff(plain.Results[i], tracked.Results[i]); d != "" {
				identical = "NO: " + d
				break
			}
		}
		// Machine-verify a sample of reconstructions (every 7th target).
		for i := range sources {
			if _, failures := rp.VerifyReconstructions(g, tracked.Results[i], 7,
				tracked.PerSource[i].ReconstructPath); len(failures) > 0 {
				return fmt.Errorf("E15 invalid reconstruction: %s", failures[0])
			}
		}

		stats := tracked.Stats
		t.Row(n, g.NumEdges(), par, dPlain, dTracked,
			fmt.Sprintf("%.2fx", float64(dTracked)/float64(dPlain)),
			identical, stats.PeakSeedPathBytes, stats.ProvenanceBytes,
			fmt.Sprintf("%.1fx", float64(stats.ProvenanceBytes)/float64(stats.PeakSeedPathBytes)))
	}
	t.Print(w)
	return nil
}
