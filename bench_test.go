package msrp

// One testing.B benchmark per experiment of internal/bench's table
// (bench.All; recorded runs in EXPERIMENTS.md).
// These benchmark the hot solver paths at fixed, laptop-friendly sizes;
// the full parameter sweeps with printed tables live in cmd/msrp-bench
// (and internal/bench), which shares the same code.

import (
	"testing"

	"msrp/internal/bmm"
	"msrp/internal/classic"
	"msrp/internal/graph"
	msrpcore "msrp/internal/msrp"
	"msrp/internal/naive"
	"msrp/internal/sample"
	"msrp/internal/ssrp"
	"msrp/internal/xrand"
)

func benchParams(seed uint64) ssrp.Params {
	p := ssrp.DefaultParams()
	p.Seed = seed
	return p
}

// BenchmarkE1_SSRPScaling times the SSRP solver (Theorem 14 shape:
// m√n + n²) on sparse and denser random graphs.
func BenchmarkE1_SSRPScaling(b *testing.B) {
	for _, cfg := range []struct {
		name string
		n, m int
	}{
		{"n400_m2n", 400, 800},
		{"n800_m2n", 800, 1600},
		{"n800_m8n", 800, 6400},
	} {
		g := graph.RandomConnected(xrand.New(uint64(cfg.n)), cfg.n, cfg.m)
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := ssrp.Solve(g, 0, benchParams(1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE1_Baselines times the two Õ(nm) baselines on the same
// workload for the E1 comparison columns.
func BenchmarkE1_Baselines(b *testing.B) {
	g := graph.RandomConnected(xrand.New(800), 800, 1600)
	b.Run("naive_deleteBFS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = naive.SSRP(g, 0)
		}
	})
	b.Run("classic_perPair", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = classic.SSRPByPairs(g, 0)
		}
	})
}

// BenchmarkE2_MSRPSigmaScaling times the MSRP solver as σ grows
// (Theorem 1 shape: m√(nσ) + σn²).
func BenchmarkE2_MSRPSigmaScaling(b *testing.B) {
	const n, m = 400, 1600
	g := graph.RandomConnected(xrand.New(42), n, m)
	for _, sigma := range []int{1, 2, 4} {
		sources := make([]int32, sigma)
		for i := range sources {
			sources[i] = int32(i * (n / sigma))
		}
		b.Run(map[int]string{1: "sigma1", 2: "sigma2", 4: "sigma4"}[sigma], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := msrpcore.Solve(g, sources, benchParams(2)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE3_LandmarkSampling times the Lemma 4 leveled sampler.
func BenchmarkE3_LandmarkSampling(b *testing.B) {
	rng := xrand.New(9)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = sample.New(rng, 10000, 4, 1, nil)
	}
}

// BenchmarkE4_PaperConstantsSSRP is the E4 hot path: paper-faithful
// constants on a cycle (the workload with genuine far edges).
func BenchmarkE4_PaperConstantsSSRP(b *testing.B) {
	g := graph.Cycle(1200)
	for i := 0; i < b.N; i++ {
		if _, _, err := ssrp.Solve(g, 0, benchParams(3)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE5_ExactnessWorkload times the boosted-constants
// configuration used by the correctness table.
func BenchmarkE5_ExactnessWorkload(b *testing.B) {
	g := graph.CycleWithChords(xrand.New(17), 200, 8)
	p := benchParams(4)
	p.SampleBoost = 8
	p.SuffixScale = 0.5
	sources := []int32{0, 66, 133}
	for i := 0; i < b.N; i++ {
		if _, err := msrpcore.Solve(g, sources, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6_BMMReduction times the Theorem 28 gadget pipeline, and
// BenchmarkE6_DirectBMM the combinatorial baseline it reduces to.
func BenchmarkE6_BMMReduction(b *testing.B) {
	rng := xrand.New(5)
	a := bmm.Random(rng, 24, 0.2)
	c := bmm.Random(rng, 24, 0.2)
	p := benchParams(5)
	p.SampleBoost = 8
	p.SuffixScale = 0.5
	for i := 0; i < b.N; i++ {
		if _, _, err := bmm.MultiplyViaMSRP(a, c, 2, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE6_DirectBMM(b *testing.B) {
	rng := xrand.New(6)
	a := bmm.Random(rng, 256, 0.2)
	c := bmm.Random(rng, 256, 0.2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bmm.Multiply(a, c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7_ScalingTrick benchmarks the far-edge stage with the
// paper's leveled landmark sets versus the flat ablation.
func BenchmarkE7_ScalingTrick(b *testing.B) {
	g := graph.Cycle(800)
	base := benchParams(7)
	base.SampleBoost = 2
	base.SuffixScale = 0.1
	for _, flat := range []bool{false, true} {
		p := base
		p.FlatLandmarks = flat
		name := "leveled"
		if flat {
			name = "flat"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := ssrp.Solve(g, 0, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE8_CrossoverCell times all three contenders on one (n, σ)
// cell of the crossover map.
func BenchmarkE8_CrossoverCell(b *testing.B) {
	const n = 300
	g := graph.RandomConnected(xrand.New(uint64(n)), n, 4*n)
	sources := []int32{0, 75, 150, 225}
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = naive.MSRP(g, sources)
		}
	})
	b.Run("ssrp_x_sigma", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, s := range sources {
				if _, _, err := ssrp.Solve(g, s, benchParams(8)); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("msrp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := msrpcore.Solve(g, sources, benchParams(8)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE9_AuxGraphConstruction isolates the §7.1 auxiliary graph
// build + Dijkstra, the piece whose size E9 tabulates.
func BenchmarkE9_AuxGraphConstruction(b *testing.B) {
	g := graph.CycleWithChords(xrand.New(3), 600, 30)
	sh, err := ssrp.NewShared(g, []int32{0}, benchParams(9))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ps := sh.NewPerSource(0)
		ps.BuildSmallNear()
	}
}
