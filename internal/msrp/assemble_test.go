package msrp

import "testing"

// TestLenSRAtLeastSR pins the bound the combine scan's landmark skip
// relies on: every §8 LenSR entry is the length of some s→r walk, so
// it is at least |sr|, in the default assembly and in PaperBottleneck's
// (whose terminal-interval corner can undershoot the true replacement
// length, but not |sr|). The rows are read after the fixpoint sweeps.
func TestLenSRAtLeastSR(t *testing.T) {
	for _, f := range pipelineFamilies() {
		for _, bottleneck := range []bool{false, true} {
			p := testParams(77)
			p.PaperBottleneck = bottleneck
			sol, err := Solve(f.g, f.sources, p)
			if err != nil {
				t.Fatal(err)
			}
			entries := 0
			for _, ps := range sol.PerSource {
				for r, row := range ps.LenSR {
					sr := ps.Ts.Dist[r]
					for i, d := range row {
						if d < sr {
							t.Fatalf("%s bottleneck=%v: LenSR[%d][%d] = %d below |sr| = %d (s=%d)", f.name, bottleneck, r, i, d, sr, ps.S)
						}
					}
					entries += len(row)
				}
			}
			if entries == 0 {
				t.Fatalf("%s bottleneck=%v: no LenSR entries checked", f.name, bottleneck)
			}
		}
	}
}
