package main

import (
	"fmt"

	"msrp"
	"msrp/internal/graph"
	"msrp/internal/naive"
	"msrp/internal/rp"
	"msrp/internal/server"
)

// truth holds the brute-force answer for every source — one BFS in G−e
// per tree edge (naive.MSRP) — and judges served answers against it.
type truth struct {
	g   *graph.Graph
	pos map[int]int  // source vertex → index into res
	res []*rp.Result // in source order
}

func newTruth(g *graph.Graph, sources []int) *truth {
	pos := make(map[int]int, len(sources))
	for i, s := range sources {
		pos[s] = i
	}
	return &truth{g: g, pos: pos, res: naive.MSRP(g, int32s(sources))}
}

// want returns the brute-force length of the shortest s→t path avoiding
// {u, v}, the avoided edge's id, and the edge's index on the canonical
// s→t path.
func (tr *truth) want(s, t, u, v int) (length, edge int32, idx int, err error) {
	i, ok := tr.pos[s]
	if !ok {
		return 0, 0, 0, fmt.Errorf("%d is not a source", s)
	}
	e, ok := tr.g.EdgeID(u, v)
	if !ok {
		return 0, 0, 0, fmt.Errorf("{%d,%d} is not an edge", u, v)
	}
	res := tr.res[i]
	child, ok := res.Tree.ChildEndpoint(tr.g, e)
	if !ok {
		return 0, 0, 0, fmt.Errorf("{%d,%d} is not a tree edge of source %d", u, v, s)
	}
	idx = int(res.Tree.Dist[child]) - 1
	if t < 0 || t >= len(res.Len) || idx >= len(res.Len[t]) {
		return 0, 0, 0, fmt.Errorf("{%d,%d} is not on the canonical %d→%d path", u, v, s, t)
	}
	return res.Len[t][idx], e, idx, nil
}

// check judges one served answer: its length (noPath marks a bridge)
// against brute force and, when the query asked for a path, the path
// with rp.CheckReplacementPath.
func (tr *truth) check(q server.QueryItem, length int32, noPath bool, path []int32) error {
	want, e, _, err := tr.want(q.Source, q.Target, q.U, q.V)
	if err != nil {
		return err
	}
	switch {
	case want == rp.Inf && !noPath:
		return fmt.Errorf("s=%d t=%d avoid {%d,%d}: served %d, brute force finds no path", q.Source, q.Target, q.U, q.V, length)
	case want != rp.Inf && (noPath || length != want):
		return fmt.Errorf("s=%d t=%d avoid {%d,%d}: served %d (noPath=%v), brute force %d", q.Source, q.Target, q.U, q.V, length, noPath, want)
	case !q.Paths || noPath:
		return nil
	}
	if err := rp.CheckReplacementPath(tr.g, path, int32(q.Source), int32(q.Target), e, want); err != nil {
		return fmt.Errorf("s=%d t=%d avoid {%d,%d}: invalid path: %w", q.Source, q.Target, q.U, q.V, err)
	}
	return nil
}

// checkBatch judges a whole wire response; the first wrong answer
// fails it.
func (tr *truth) checkBatch(req server.QueryRequest, resp server.QueryResponse) error {
	if len(resp.Answers) != len(req.Queries) {
		return fmt.Errorf("%d answers for %d queries", len(resp.Answers), len(req.Queries))
	}
	for i, q := range req.Queries {
		a := resp.Answers[i]
		if a.Error != "" || a.PathError != "" {
			return fmt.Errorf("s=%d t=%d avoid {%d,%d}: error %q %q", q.Source, q.Target, q.U, q.V, a.Error, a.PathError)
		}
		if err := tr.check(q, a.Length, a.NoPath, a.Path); err != nil {
			return err
		}
	}
	return nil
}

// checkAnswers judges in-process answers the way checkBatch judges wire
// answers.
func (tr *truth) checkAnswers(req server.QueryRequest, answers []msrp.Answer) error {
	for i, q := range req.Queries {
		a := answers[i]
		if a.Err != nil {
			return a.Err
		}
		if err := tr.check(q, a.Length, a.Length == msrp.NoPath, a.Path); err != nil {
			return err
		}
	}
	return nil
}

// checkTable diffs a full solve result for source index i against
// brute force with rp.CountMismatches. lengths(t) returns the solver's
// row for target t.
func (tr *truth) checkTable(i int, lengths func(t int) []int32) error {
	want := tr.res[i]
	got := &rp.Result{Source: want.Source, Tree: want.Tree, Len: make([][]int32, len(want.Len))}
	for t := range got.Len {
		got.Len[t] = lengths(t)
		if len(got.Len[t]) != len(want.Len[t]) {
			return fmt.Errorf("source %d target %d: %d lengths, want %d", want.Source, t, len(got.Len[t]), len(want.Len[t]))
		}
	}
	if mism, total := rp.CountMismatches(want, got); mism > 0 {
		return fmt.Errorf("source %d: %d/%d lengths differ from brute force", want.Source, mism, total)
	}
	return nil
}

// entries is the number of (target, edge) answers in the brute-force
// tables — the size of what one solve is checked against.
func (tr *truth) entries() int {
	n := 0
	for _, r := range tr.res {
		n += r.NumQueries()
	}
	return n
}
