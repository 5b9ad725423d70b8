package ssrp

import (
	"testing"

	"msrp/internal/graph"
	"msrp/internal/xrand"
)

// BenchmarkLazyBuild times one tracked per-source build the way the
// Oracle materializes an uncached source: the §7.1 graph, its witness
// snapshot, the landmark rows (one classic.Rows pass) and the
// combine. The shape is the serve-churn workload's: RandomConnected(200,
// 800), σ = 8, paper constants. Each iteration builds the next source.
func BenchmarkLazyBuild(b *testing.B) {
	const n, m, sigma = 200, 800, 8
	g := graph.RandomConnected(xrand.New(200), n, m)
	sources := make([]int32, sigma)
	for i := range sources {
		sources[i] = int32(i * n / sigma)
	}
	p := DefaultParams()
	p.TrackPaths = true
	sh, err := NewShared(g, sources, p)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		ps := sh.NewPerSource(sources[i%sigma])
		ps.TrackPaths = true
		ps.BuildSmallNear()
		ps.Snap = ps.Small.SnapshotProvenance()
		ps.ComputeLenSRClassic()
		ps.Combine(nil)
	}
}
