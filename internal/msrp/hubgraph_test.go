package msrp

import (
	"testing"

	"msrp/internal/naive"
	"msrp/internal/rp"
)

// TestHubGraphRowsExact checks the §8.1 and §8.2.2 hub-graph rows
// directly instead of through final answers: every d(s,c,e) for a
// source s, center c and edge e on the canonical s→c path, and every
// d(c,r,e) for a center c, landmark r and edge e on the T_c path to r.
// Each finite value must be sound (not below the brute-force length),
// expand through the tracked parent chains to a walk
// rp.CheckReplacementPath accepts at exactly that length, and — the
// families run boosted — be exact. So entries the assembly never reads,
// and the walks behind entries that lose its min(), are checked too.
func TestHubGraphRowsExact(t *testing.T) {
	for _, f := range pipelineFamilies() {
		t.Run(f.name, func(t *testing.T) {
			pv := solveAt(t, f.g, f.sources, 1, true).Prov
			checked := 0
			check := func(x, h, e, v int32, expand func() ([]int32, error)) {
				if v >= rp.Inf {
					return
				}
				checked++
				want := naive.OnePair(f.g, x, h, e)
				if v < want {
					t.Fatalf("d(%d,%d,e=%d) = %d is below the true %d", x, h, e, v, want)
				}
				p, err := expand()
				if err != nil {
					t.Fatalf("d(%d,%d,e=%d) = %d: %v", x, h, e, v, err)
				}
				if err := rp.CheckReplacementPath(f.g, p, x, h, e, v); err != nil {
					t.Fatalf("d(%d,%d,e=%d) = %d: %v", x, h, e, v, err)
				}
				if v != want {
					t.Errorf("d(%d,%d,e=%d) = %d, want %d", x, h, e, v, want)
				}
			}
			for si, ps := range pv.perSrc {
				for _, c := range pv.ctr.List {
					if c == ps.S || !ps.Ts.Reachable(c) {
						continue
					}
					for _, e := range ps.Ts.PathEdgesTo(c) {
						check(ps.S, c, e, pv.scs[si].dist(c, e), func() ([]int32, error) {
							return pv.expandSC(si, c, e)
						})
					}
				}
			}
			for _, c := range pv.ctr.List {
				tc, gc := pv.ctr.Tree[c], pv.cl.at(c)
				for _, r := range pv.sh.List {
					if r == c || !tc.Reachable(r) {
						continue
					}
					for _, e := range tc.PathEdgesTo(r) {
						check(c, r, e, gc.dist(r, e), func() ([]int32, error) {
							return pv.expandCR(c, r, e)
						})
					}
				}
			}
			if checked == 0 {
				t.Fatal("no finite hub-graph value to check")
			}
			t.Logf("%d finite hub-graph values checked", checked)
		})
	}
}
