package classic

import (
	"msrp/internal/bfs"
	"msrp/internal/graph"
	"msrp/internal/rp"
)

// Rows is Pair for many targets of one source in a single pass over
// T_s: for every target r reachable from ts.Root (r ≠ ts.Root) it sets
// lens[r] to the row Pair(g, ts, trees[r], r) returns, and, when wits
// is non-nil, wits[r] to that row's crossing-edge witnesses (expand
// one with BuildPath(ts, trees[r])). Other targets get no entry. On
// ties a witness may name a different crossing edge than Pair's; the
// lengths are identical, because the candidate set is.
//
// The rows of all targets share one backing array (and the witnesses
// another), each row capped at its own length.
func Rows(g *graph.Graph, ts *bfs.Tree, targets []int32, trees map[int32]*bfs.Tree, lens map[int32][]int32, wits map[int32][]Witness) {
	n := g.NumVertices()
	// Slot the targets in T_s preorder, so the targets under any vertex
	// c hold the run of slots [first[c], first[c]+under[c]). under[v]
	// first marks v as a target, then a bottom-up pass over the BFS
	// order (children follow parents) turns the marks into subtree
	// counts. next[v] holds the same mark until v is slotted, then the
	// cursor its children's runs are carved from.
	buf := make([]int32, 3*n)
	under, first, next := buf[:n:n], buf[n:2*n:2*n], buf[2*n:]
	total := 0
	for _, r := range targets {
		if r != ts.Root && ts.Reachable(r) && under[r] == 0 {
			under[r], next[r] = 1, 1
			total += int(ts.Dist[r])
		}
	}
	order := ts.Order
	for k := len(order) - 1; k > 0; k-- {
		v := order[k]
		under[ts.Parent[v]] += under[v]
	}
	if under[ts.Root] == 0 {
		return
	}

	type slot struct {
		dist []int32 // T_r's distances
		row  []int32
		wit  []Witness
	}
	slots := make([]slot, under[ts.Root])
	rows := make([]int32, total)
	for i := range rows {
		rows[i] = rp.Inf
	}
	var witBuf []Witness
	if wits != nil {
		witBuf = make([]Witness, total)
		for i := range witBuf {
			witBuf[i] = Witness{U: -1, V: -1}
		}
	}
	off := 0
	for _, v := range order[1:] {
		p := ts.Parent[v]
		first[v] = next[p]
		next[p] += under[v]
		own := next[v]
		next[v] = first[v] + own
		if own == 0 {
			continue
		}
		l := int(ts.Dist[v])
		sl := &slots[first[v]]
		sl.dist = trees[v].Dist
		sl.row = rows[off : off+l : off+l]
		lens[v] = sl.row
		if wits != nil {
			sl.wit = witBuf[off : off+l : off+l]
			wits[v] = sl.wit
		}
		off += l
	}

	// Every non-tree edge {a, b} crosses exactly the cuts
	// (Parent[c], c) for c strictly below lca(a, b) on either side:
	// walking the deeper endpoint up visits them one by one. A cut
	// entered at v from u offers d(s,u) + 1 + d(v,r) to the entry of
	// e = (Parent[c], c), index d(s,c) − 1, of every target r under c.
	// Tree edges cross only their own cut, which they cannot replace.
	dist, parent := ts.Dist, ts.Parent
	for e := int32(0); e < int32(g.NumEdges()); e++ {
		a, b := g.EdgeEndpoints(int(e))
		if !ts.Reachable(a) || ts.ParentEdge[a] == e || ts.ParentEdge[b] == e {
			continue
		}
		for x, y := a, b; x != y; {
			c, u, v := x, b, a
			if dist[y] > dist[x] {
				c, u, v = y, a, b
				y = parent[y]
			} else {
				x = parent[x]
			}
			lo := first[c]
			run := slots[lo : lo+under[c]]
			i, base := dist[c]-1, dist[u]+1
			for k := range run {
				sl := &run[k]
				if cand := base + sl.dist[v]; cand < sl.row[i] {
					sl.row[i] = cand
					if wits != nil {
						sl.wit[i] = Witness{U: u, V: v}
					}
				}
			}
		}
	}
}
