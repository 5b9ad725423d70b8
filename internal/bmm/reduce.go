package bmm

import (
	"fmt"

	"msrp/internal/graph"
	"msrp/internal/lca"
	"msrp/internal/msrp"
	"msrp/internal/rp"
)

// This file implements the paper's Theorem 28 gadget reduction: Boolean
// matrix multiplication via ⌈√(n/σ)⌉ invocations of the MSRP algorithm
// on graphs with O(n) vertices and O(m) edges.
//
// # Gadget (one graph G_i per batch of σ·q rows, q = ⌈√(n/σ)⌉)
//
//	a-layer: a(0..n-1)        — edge a(x)–b(y) iff A[x][y] = 1
//	b-layer: b(0..n-1)        — edge b(x)–c(y) iff B[x][y] = 1
//	c-layer: c(0..n-1)
//	σ chains of q vertices v(1..q); the *last* vertex of each chain is
//	a source. Chain slot t (1-based) handles one matrix row via a
//	connector path of 2(t−1)+1 intermediate vertices to that row's
//	a-vertex.
//
// A source therefore reaches c(ℓ) through its slot-t row at distance
// exactly
//
//	signal(t) = (q − t) + 2t + 2 = q + t + 2
//
// (chain walk + connector + a–b + b–c). Failing the chain edge
// e_t = (v(t), v(t+1)) removes slots ≤ t from the source's reach.
//
// # Decoding, and a fix to the paper's text
//
// The paper decodes with equality tests on the distances (and its
// worked example contains an off-by-one: the slot-2 signal is q+4, not
// q+5). Equality decoding is fragile in an *undirected* gadget: a walk
// may re-cross the a–b boundary (a→b→a'→b'→c), arriving at
// q + t'' + 4 — indistinguishable from the genuine slot-(t''+2) signal.
// Threshold decoding is immune: every bounce walk costs at least
// q + t + 5 against a slot-t threshold of q + t + 2, and every genuine
// slot-t path costs exactly q + t + 2, so
//
//	C[row(t)][ℓ] = 1  ⟺  d(source, c(ℓ), e_{t−1}) ≤ q + t + 2,
//
// with the unfailed distance standing in when e_{t−1} is not on the
// canonical path (deleting an off-path edge cannot change the
// distance). This section is the only record of the deviation.

// ReductionStats reports the gadget dimensions for the E6 experiment.
type ReductionStats struct {
	NumGraphs    int
	ChainLen     int // q
	RowsPerGraph int // σ·q
	GadgetVerts  int
	GadgetEdges  int
	MSRPQueries  int64
	DecodedRows  int
}

// MultiplyViaMSRP computes C = A×B by running the MSRP solver on
// ⌈n/(σq)⌉ gadget graphs with σ sources each. The params control the
// inner MSRP runs; exactness of the product needs the solver's w.h.p.
// guarantees, so callers at toy sizes should boost sampling as the
// tests do.
func MultiplyViaMSRP(a, b *Matrix, sigma int, p msrp.Params) (*Matrix, *ReductionStats, error) {
	if a.n != b.n {
		return nil, nil, fmt.Errorf("bmm: size mismatch %d vs %d", a.n, b.n)
	}
	n := a.n
	if n == 0 {
		return NewMatrix(0), &ReductionStats{}, nil
	}
	if sigma < 1 {
		sigma = 1
	}
	q := 1
	for q*q < (n+sigma-1)/sigma {
		q++
	}
	rowsPerGraph := sigma * q
	numGraphs := (n + rowsPerGraph - 1) / rowsPerGraph

	c := NewMatrix(n)
	stats := &ReductionStats{
		NumGraphs:    numGraphs,
		ChainLen:     q,
		RowsPerGraph: rowsPerGraph,
	}
	for gi := 0; gi < numGraphs; gi++ {
		if err := solveGadget(a, b, c, gi, sigma, q, p, stats); err != nil {
			return nil, nil, err
		}
	}
	return c, stats, nil
}

// solveGadget builds gadget graph gi, runs MSRP, and decodes the rows
// it covers into c.
func solveGadget(a, b, c *Matrix, gi, sigma, q int, p msrp.Params, stats *ReductionStats) error {
	n := a.n
	rowBase := gi * sigma * q

	// Vertex ids: a-layer 0..n-1, b-layer n..2n-1, c-layer 2n..3n-1,
	// then σ chains of q vertices, then connector intermediates.
	aID := func(x int) int { return x }
	bID := func(y int) int { return n + y }
	cID := func(z int) int { return 2*n + z }
	vID := func(chain, t int) int { return 3*n + chain*q + (t - 1) } // t is 1-based

	// Count connector intermediates: slot t uses 2(t−1)+1 of them, for
	// every chain slot that maps to a real row (< n).
	intermediates := 0
	for chain := 0; chain < sigma; chain++ {
		for t := 1; t <= q; t++ {
			if row := rowBase + chain*q + (t - 1); row < n {
				intermediates += 2*(t-1) + 1
			}
		}
	}
	total := 3*n + sigma*q + intermediates
	bld := graph.NewBuilder(total)

	add := func(u, v int) error { return bld.AddEdge(u, v) }
	// Matrix edges.
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			if a.Get(x, y) {
				if err := add(aID(x), bID(y)); err != nil {
					return err
				}
			}
			if b.Get(x, y) {
				if err := add(bID(x), cID(y)); err != nil {
					return err
				}
			}
		}
	}
	// Chains and connectors.
	next := 3*n + sigma*q // first intermediate id
	sources := make([]int32, sigma)
	for chain := 0; chain < sigma; chain++ {
		for t := 1; t < q; t++ {
			if err := add(vID(chain, t), vID(chain, t+1)); err != nil {
				return err
			}
		}
		sources[chain] = int32(vID(chain, q))
		for t := 1; t <= q; t++ {
			row := rowBase + chain*q + (t - 1)
			if row >= n {
				continue
			}
			// Path v(chain,t) — w_1 — … — w_k — a(row), k = 2(t−1)+1.
			prev := vID(chain, t)
			for k := 0; k < 2*(t-1)+1; k++ {
				if err := add(prev, next); err != nil {
					return err
				}
				prev = next
				next++
			}
			if err := add(prev, aID(row)); err != nil {
				return err
			}
		}
	}
	g, err := bld.Build()
	if err != nil {
		return err
	}
	stats.GadgetVerts += g.NumVertices()
	stats.GadgetEdges += g.NumEdges()

	sol, err := msrp.Solve(g, sources, p)
	if err != nil {
		return err
	}
	results := sol.Results
	stats.MSRPQueries += sol.Stats.Queries

	// Decode.
	for chain := 0; chain < sigma; chain++ {
		res := results[chain]
		tree := res.Tree
		anc := lca.NewAncestry(g, tree)
		for t := 1; t <= q; t++ {
			row := rowBase + chain*q + (t - 1)
			if row >= n {
				continue
			}
			stats.DecodedRows++
			threshold := int32(q + t + 2)
			// Failure edge e_{t-1} = (v(t-1), v(t)) selects slots >= t.
			var failEdge, failChild int32 = -1, -1
			if t >= 2 {
				e, ok := g.EdgeID(vID(chain, t-1), vID(chain, t))
				if !ok {
					return fmt.Errorf("bmm: missing chain edge (chain %d, t %d)", chain, t)
				}
				failEdge = e
				failChild, _ = tree.ChildEndpoint(g, e)
			}
			for z := 0; z < n; z++ {
				target := int32(cID(z))
				base := tree.Dist[target]
				if base < 0 {
					continue // unreachable: the whole column stays 0
				}
				d := base
				if failEdge >= 0 && failChild >= 0 && anc.IsAncestor(failChild, target) {
					// e_{t-1} lies on the canonical path: use the
					// replacement length. (An off-path deletion leaves
					// the distance unchanged, so `base` stands.)
					d = res.Avoid(target, int(tree.Dist[failChild])-1)
				}
				if d != rp.Inf && d <= threshold {
					c.Set(row, z, true)
				}
			}
		}
	}
	return nil
}
