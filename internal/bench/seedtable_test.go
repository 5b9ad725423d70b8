package bench

import (
	"runtime"
	"testing"

	"msrp/internal/rp"
)

// TestSeedTablePreprocessSpeedup asserts the E13 acceptance criterion:
// ≥ 1.5× wall-clock preprocess speedup at Parallelism=8 over
// Parallelism=1 on the skewed seed-table-heavy instance — the number
// the sharded §8.2.1 build plus the engine's one-item-at-a-time
// scheduler must clear over the fixed-chunk engine, which left workers
// idle on this family. Like
// TestSigmaSourceSpeedup, the wall-clock assertion needs ≥ 8 CPUs and
// an uninstrumented build; everywhere else the test still runs both
// configurations on the quick instance and checks bit-identical output
// and a rehash-free seed build.
func TestSeedTablePreprocessSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size skewed σ-source solves take seconds")
	}
	assertSpeedup := runtime.NumCPU() >= 8 && !raceEnabled
	inst := NewSeedTableInstance(!assertSpeedup) // quick when identity-only
	seqRes, seqStats, seqTime, err := inst.Preprocess(1)
	if err != nil {
		t.Fatal(err)
	}
	parRes, parStats, parTime, err := inst.Preprocess(8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seqRes {
		if d := rp.Diff(seqRes[i], parRes[i]); d != "" {
			t.Fatalf("parallel output differs from sequential for source %d: %s",
				inst.Sources[i], d)
		}
	}
	if seqStats.SeedCount == 0 {
		t.Fatal("instance fed nothing into the seed table — E13 is not measuring the §8.2.1 build")
	}
	for _, st := range []struct {
		name     string
		rehashes int
	}{{"sequential", seqStats.SeedRehashes}, {"parallel", parStats.SeedRehashes}} {
		if st.rehashes != 0 {
			t.Errorf("%s preprocess paid %d seed-table rehashes despite presizing", st.name, st.rehashes)
		}
	}
	if !assertSpeedup {
		t.Skipf("NumCPU=%d race=%v: skipping the wall-clock speedup assertion (needs >= 8 CPUs, no -race)",
			runtime.NumCPU(), raceEnabled)
	}
	speedup := float64(seqTime) / float64(parTime)
	t.Logf("n=%d m=%d σ=%d: sequential %v, parallel(8) %v, speedup %.2fx",
		inst.N, inst.M, inst.Sigma, seqTime, parTime, speedup)
	if speedup < 1.5 {
		t.Fatalf("speedup %.2fx < 1.5x at Parallelism=8 (sequential %v, parallel %v)",
			speedup, seqTime, parTime)
	}
}

// BenchmarkSeedTablePreprocess benchmarks the skewed preprocess across
// Parallelism values on the quick instance (go test -bench SeedTable).
func BenchmarkSeedTablePreprocess(b *testing.B) {
	inst := NewSeedTableInstance(true)
	for _, par := range []int{1, 2, 8} {
		b.Run(map[int]string{1: "p1", 2: "p2", 8: "p8"}[par], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, _, err := inst.Preprocess(par); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
