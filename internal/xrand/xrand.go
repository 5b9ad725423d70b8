// Package xrand provides small, fast, deterministic pseudo-random number
// generators used throughout the repository.
//
// All randomness in the MSRP implementation (landmark sampling, center
// sampling, workload generation) flows from a single user-provided seed
// through this package, so every run is reproducible bit-for-bit across
// machines and Go versions. The core generator is splitmix64 (Steele,
// Lea, Flood; used as the seeding generator of xoshiro), which passes
// BigCrush and has a guaranteed full 2^64 period.
package xrand

import (
	"math"
	"math/bits"
)

// golden is the 64-bit golden-ratio increment used by splitmix64.
const golden = 0x9e3779b97f4a7c15

// RNG is a deterministic pseudo-random number generator based on
// splitmix64. The zero value is a valid generator seeded with 0.
//
// RNG is intentionally not safe for concurrent use; callers that need
// per-goroutine randomness should Split the generator instead of sharing
// it, which also keeps parallel runs deterministic regardless of
// scheduling order.
type RNG struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Uint64 returns the next pseudo-random 64-bit value.
func (r *RNG) Uint64() uint64 {
	r.state += golden
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Split derives an independent generator from r in a deterministic way.
// The derived stream is decorrelated from the parent by hashing the
// parent's next output with a distinct multiplier.
func (r *RNG) Split() *RNG {
	return &RNG{state: Mix(r.Uint64() ^ 0x6a09e667f3bcc909)}
}

// Intn returns a uniform value in [0, n). It panics if n <= 0, matching
// the contract of math/rand.Intn; callers always pass positive bounds.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method: unbiased and avoids the
	// modulo. https://arxiv.org/abs/1805.10941
	un := uint64(n)
	v := r.Uint64()
	hi, lo := bits.Mul64(v, un)
	if lo < un {
		thresh := (-un) % un
		for lo < thresh {
			v = r.Uint64()
			hi, lo = bits.Mul64(v, un)
		}
	}
	return int(hi)
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p (clamped to [0, 1]).
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm returns a pseudo-random permutation of [0, n) using a
// Fisher-Yates shuffle.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// NormFloat64 returns a normally distributed value (mean 0, stddev 1)
// using the Box-Muller transform. Used only by workload generators.
func (r *RNG) NormFloat64() float64 {
	for {
		u := r.Float64()
		if u == 0 {
			continue
		}
		v := r.Float64()
		return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
	}
}

// Mix applies the splitmix64 finalizer to x: a high-quality 64-bit
// hash, used to derive independent seeds from one (internal/load gives
// each client its own query stream this way).
func Mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
