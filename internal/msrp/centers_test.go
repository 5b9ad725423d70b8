package msrp

import (
	"testing"

	"msrp/internal/naive"
	"msrp/internal/rp"
)

// TestCenterRowsExact checks the §8.1 center rows as a tracked solve
// retains them, not through final answers: for every source s, every
// center c ≠ s it reaches and every edge e on the canonical s→c path,
// the row's d(s,c,e) must equal the brute-force length, and a finite
// value's witness walk must pass rp.CheckReplacementPath at exactly
// that length. The rows are exact by construction (classic.Rows), so
// no boost is needed; the solve runs at P = 2 because the rows are
// filled inside the pipelined build stage, where a race would live.
func TestCenterRowsExact(t *testing.T) {
	for _, f := range pipelineFamilies() {
		t.Run(f.name, func(t *testing.T) {
			pv := solveAt(t, f.g, f.sources, 2, true).Prov
			checked := 0
			for si, ps := range pv.perSrc {
				cr := pv.rows[si]
				for _, c := range pv.ctr.List {
					if c == ps.S || !ps.Ts.Reachable(c) {
						continue
					}
					for i, e := range ps.Ts.PathEdgesTo(c) {
						v := ps.RowDist(cr.lens, c, i, e)
						if want := naive.OnePair(f.g, ps.S, c, e); v != want {
							t.Fatalf("d(%d,%d,e=%d) = %d, want %d", ps.S, c, e, v, want)
						}
						if v >= rp.Inf {
							continue
						}
						checked++
						p, err := ps.WitnessPath(cr.wits, pv.ctr.Tree[c], c, i)
						if err != nil {
							t.Fatalf("d(%d,%d,e=%d) = %d: %v", ps.S, c, e, v, err)
						}
						if err := rp.CheckReplacementPath(f.g, p, ps.S, c, e, v); err != nil {
							t.Fatalf("d(%d,%d,e=%d) = %d: %v", ps.S, c, e, v, err)
						}
					}
				}
			}
			if checked == 0 {
				t.Fatal("no finite center-row value to check")
			}
			t.Logf("%d finite center-row values checked", checked)
		})
	}
}
