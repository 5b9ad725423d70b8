package msrp

import "testing"

// TestLenSRAtLeastSR pins the bound the combine scan's landmark skip
// relies on: every §8 LenSR entry is the length of some s→r walk, so
// it is at least |sr|. The rows are read after the fixpoint sweeps.
func TestLenSRAtLeastSR(t *testing.T) {
	for _, f := range pipelineFamilies() {
		sol, err := Solve(f.g, f.sources, testParams(77))
		if err != nil {
			t.Fatal(err)
		}
		entries := 0
		for _, ps := range sol.PerSource {
			for r, row := range ps.LenSR {
				sr := ps.Ts.Dist[r]
				for i, d := range row {
					if d < sr {
						t.Fatalf("%s: LenSR[%d][%d] = %d below |sr| = %d (s=%d)", f.name, r, i, d, sr, ps.S)
					}
				}
				entries += len(row)
			}
		}
		if entries == 0 {
			t.Fatalf("%s: no LenSR entries checked", f.name)
		}
	}
}
