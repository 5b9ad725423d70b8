// Package cuckoo implements the Pagh–Rodler cuckoo hash table the paper
// relies on for constant worst-case-time lookups (Lemma 5).
//
// The table maps uint64 keys to int32 values. Keys are placed in one of
// two candidate slots (one per sub-table); lookups therefore probe at
// most two locations, giving the worst-case O(1) query the paper's
// accounting assumes when it stores d(s, r, e) values keyed by
// (source, landmark, edge). Insertion is expected O(1): a displaced key
// kicks the occupant of its alternate slot, and if a kick chain exceeds
// the logarithmic bound the table rehashes with fresh hash seeds
// (growing when the load factor warrants it), exactly as in the paper
// by Pagh and Rodler (J. Algorithms, 2004).
package cuckoo

import (
	"msrp/internal/xrand"
)

const (
	// maxLoad is the fraction of total slots we fill before growing.
	// Two-way cuckoo hashing degrades sharply above ~0.5; 0.4 keeps
	// rehash cascades rare.
	maxLoad = 0.4

	// minCapacity is the smallest per-subtable size (power of two).
	minCapacity = 8
)

type slot struct {
	key  uint64
	val  int32
	used bool
}

// Table is a cuckoo hash table from uint64 to int32. The zero value is
// ready to use. Table is not safe for concurrent mutation.
type Table struct {
	t1, t2     []slot
	mask       uint64
	seed1      uint64
	seed2      uint64
	count      int
	seedSource xrand.RNG
	// rehashes counts full-table rebuilds; exposed via Rehashes for the
	// EXPERIMENTS.md hash-table behaviour table.
	rehashes int

	// pending* carry the orphan entry displaced at the end of a failed
	// kick chain across the subsequent rehash (kept on the struct to
	// avoid an allocation on the failure path).
	pendingKey uint64
	pendingVal int32
	hasPending bool
}

// New returns a table pre-sized for capacityHint entries.
func New(capacityHint int) *Table {
	t := &Table{}
	t.init(sizeFor(capacityHint))
	return t
}

// sizeFor returns the smallest power-of-two per-subtable size whose
// total capacity keeps n entries under the load bound.
func sizeFor(n int) int {
	size := minCapacity
	for float64(n) > maxLoad*float64(2*size) {
		size *= 2
	}
	return size
}

// Reserve grows the table so it can hold at least n entries without
// any further growth rehash. Presizing is what keeps the Θ(σn)
// seed-table build (§8.2.1) free of rehash cascades: a build that
// knows its entry count up front pays zero rebuilds instead of
// O(log n) doubling ones. Reserving on an empty table is a free
// re-initialization and does not count toward Rehashes; on a populated
// table it costs exactly one counted rebuild. Shrinking is never
// performed.
func (t *Table) Reserve(n int) {
	size := sizeFor(n)
	if t.t1 != nil && size <= len(t.t1) {
		return
	}
	if t.count == 0 && !t.hasPending {
		t.init(size)
		return
	}
	t.rehash(size)
}

func (t *Table) init(size int) {
	t.t1 = make([]slot, size)
	t.t2 = make([]slot, size)
	t.mask = uint64(size - 1)
	t.reseed()
}

func (t *Table) reseed() {
	t.seed1 = t.seedSource.Uint64() | 1
	t.seed2 = t.seedSource.Uint64() | 2
	if t.seed1 == t.seed2 {
		t.seed2 ^= 0xdeadbeefcafef00d
	}
}

func (t *Table) h1(k uint64) uint64 { return xrand.Mix(k^t.seed1) & t.mask }
func (t *Table) h2(k uint64) uint64 { return xrand.Mix(k^t.seed2) & t.mask }

// Len returns the number of stored keys.
func (t *Table) Len() int { return t.count }

// Rehashes returns how many full rebuilds have occurred (observability
// for the hash-behaviour experiment).
func (t *Table) Rehashes() int { return t.rehashes }

// Bytes returns the table's slot-array footprint (16 bytes per slot:
// key + value + occupancy, padded). Used by the provenance-plane memory
// accounting, which retains the §8.2.1 seed table for path expansion.
func (t *Table) Bytes() int64 { return 16 * int64(len(t.t1)+len(t.t2)) }

// Get returns the value stored under key. Worst case: two probes.
func (t *Table) Get(key uint64) (int32, bool) {
	if t.t1 == nil {
		return 0, false
	}
	if s := &t.t1[t.h1(key)]; s.used && s.key == key {
		return s.val, true
	}
	if s := &t.t2[t.h2(key)]; s.used && s.key == key {
		return s.val, true
	}
	return 0, false
}

// GetOr returns the stored value or def when absent.
func (t *Table) GetOr(key uint64, def int32) int32 {
	if v, ok := t.Get(key); ok {
		return v
	}
	return def
}

// Put stores value under key, replacing any existing entry.
func (t *Table) Put(key uint64, value int32) {
	if t.t1 == nil {
		t.init(minCapacity)
	}
	// Update in place if present.
	if s := &t.t1[t.h1(key)]; s.used && s.key == key {
		s.val = value
		return
	}
	if s := &t.t2[t.h2(key)]; s.used && s.key == key {
		s.val = value
		return
	}
	if float64(t.count+1) > maxLoad*float64(len(t.t1)+len(t.t2)) {
		t.grow(2 * len(t.t1))
	}
	if !t.insertNew(key, value) {
		// The kick chain exceeded its bound. The chain already placed
		// (key, value) — the entry left in hand is some displaced
		// occupant, stashed in pending — so the rebuild (which carries
		// pending) completes the insertion. Do NOT retry insertNew here:
		// that would duplicate the key.
		t.rehash(2 * len(t.t1))
	}
	t.count++
}

// MinPut stores value only if key is absent or value is smaller than
// the stored one. Replacement-path algorithms accumulate minima, so
// this is the hot write path.
func (t *Table) MinPut(key uint64, value int32) {
	if v, ok := t.Get(key); ok && v <= value {
		return
	}
	t.Put(key, value)
}

// insertNew places a key known to be absent. Returns false if the kick
// chain exceeded the bound (caller rehashes).
func (t *Table) insertNew(key uint64, value int32) bool {
	// Kick bound: 6·log2(size) + 8, the standard O(log n) bound from
	// the Pagh–Rodler analysis.
	bound := 8
	for sz := len(t.t1); sz > 1; sz >>= 1 {
		bound += 6
	}
	k, v := key, value
	inFirst := true
	for i := 0; i < bound; i++ {
		var s *slot
		if inFirst {
			s = &t.t1[t.h1(k)]
		} else {
			s = &t.t2[t.h2(k)]
		}
		if !s.used {
			s.key, s.val, s.used = k, v, true
			return true
		}
		s.key, k = k, s.key
		s.val, v = v, s.val
		inFirst = !inFirst
	}
	// Stash the orphan displaced at the end of the failed chain; the
	// caller's rehash re-inserts it after rebuilding.
	t.pendingKey, t.pendingVal, t.hasPending = k, v, true
	return false
}

// grow rebuilds into tables of the given per-subtable size.
func (t *Table) grow(size int) { t.rehash(size) }

// rehash rebuilds the table with fresh seeds at the given size,
// reinserting every entry from the old tables plus any pending orphan.
//
// If an attempt fails partway (unlucky seeds), the whole attempt is
// discarded and restarted from the same old tables and the same
// original orphan: every entry displaced during the failed attempt is
// itself a member of old1 ∪ old2 ∪ {orphan}, so nothing is lost. The
// size doubles on retry, which bounds the number of attempts.
func (t *Table) rehash(size int) {
	old1, old2 := t.t1, t.t2
	orphanKey, orphanVal, hasOrphan := t.pendingKey, t.pendingVal, t.hasPending
	for {
		t.rehashes++
		t.hasPending = false
		t.t1 = make([]slot, size)
		t.t2 = make([]slot, size)
		t.mask = uint64(size - 1)
		t.reseed()
		ok := true
		reinsert := func(s slot) bool {
			if !s.used {
				return true
			}
			return t.insertNew(s.key, s.val)
		}
		for i := range old1 {
			if !reinsert(old1[i]) {
				ok = false
				break
			}
		}
		if ok {
			for i := range old2 {
				if !reinsert(old2[i]) {
					ok = false
					break
				}
			}
		}
		if ok && hasOrphan {
			ok = t.insertNew(orphanKey, orphanVal)
		}
		if ok {
			t.hasPending = false
			return
		}
		size *= 2
	}
}

// Delete removes key, reporting whether it was present.
func (t *Table) Delete(key uint64) bool {
	if t.t1 == nil {
		return false
	}
	if s := &t.t1[t.h1(key)]; s.used && s.key == key {
		*s = slot{}
		t.count--
		return true
	}
	if s := &t.t2[t.h2(key)]; s.used && s.key == key {
		*s = slot{}
		t.count--
		return true
	}
	return false
}

// Range calls fn for every entry until fn returns false. Iteration
// order is unspecified.
func (t *Table) Range(fn func(key uint64, value int32) bool) {
	for i := range t.t1 {
		if t.t1[i].used && !fn(t.t1[i].key, t.t1[i].val) {
			return
		}
	}
	for i := range t.t2 {
		if t.t2[i].used && !fn(t.t2[i].key, t.t2[i].val) {
			return
		}
	}
}
