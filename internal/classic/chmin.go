package classic

import "math"

// chminTree is a segment tree supporting range "chmin" updates
// (value[i] = min(value[i], x) for i in [lo, hi]) and point queries.
// Each update carries an opaque payload that the query returns with
// the winning value — the classic algorithm uses it to remember which
// crossing edge realized each minimum, so replacement paths can be
// reconstructed, not just measured.
//
// Because queries only happen after all updates, no push-down is
// needed: a point query takes the minimum of the pending values on the
// root-to-leaf path. Both operations are O(log n).
type chminTree struct {
	size    int     // leaves (power of two >= n)
	min     []int64 // pending chmin per node, 1-based heap layout
	payload []int64 // payload that set the pending value
}

const chminInf = int64(math.MaxInt64)

// newChminTree returns a tree over n leaves, every value at chminInf.
// The payload array needs no clearing: queries read a payload only
// where a chmin already landed.
func newChminTree(n int) *chminTree {
	size := 1
	for size < n {
		size *= 2
	}
	if n == 0 {
		size = 1
	}
	t := &chminTree{
		size:    size,
		min:     make([]int64, 2*size),
		payload: make([]int64, 2*size),
	}
	for i := range t.min {
		t.min[i] = chminInf
	}
	return t
}

// update applies value[i] = min(value[i], x) for all i in [lo, hi],
// remembering payload wherever x wins.
func (t *chminTree) update(lo, hi int, x int64, payload int64) {
	if lo < 0 {
		lo = 0
	}
	if hi >= t.size {
		hi = t.size - 1
	}
	if lo > hi {
		return
	}
	l, r := lo+t.size, hi+t.size+1
	for l < r {
		if l&1 == 1 {
			if x < t.min[l] {
				t.min[l] = x
				t.payload[l] = payload
			}
			l++
		}
		if r&1 == 1 {
			r--
			if x < t.min[r] {
				t.min[r] = x
				t.payload[r] = payload
			}
		}
		l >>= 1
		r >>= 1
	}
}

// query returns the current value at index i and the payload of the
// update that set it.
func (t *chminTree) query(i int) (int64, int64) {
	best := chminInf
	var pay int64
	for node := i + t.size; node >= 1; node >>= 1 {
		if t.min[node] < best {
			best = t.min[node]
			pay = t.payload[node]
		}
	}
	return best, pay
}
