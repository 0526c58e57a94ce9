// Package xrand provides small, fast, deterministic pseudo-random number
// generators used throughout the simulator.
//
// Everything in this repository must be reproducible from a seed: workload
// generation, hash-function selection, random-candidates caches and the
// PriSM partition sampler all consume streams from this package. We do not
// use math/rand so that results are stable across Go releases and so that
// independent subsystems can own independent, cheaply-created streams.
package xrand

import (
	"math"
	"math/bits"
)

// Mix64 is one step of the SplitMix64 generator as a stateless function:
// the k-th SplitMix64 output from seed s is Mix64(s + (k−1)·0x9e3779b97f4a7c15).
// It is useful for deriving per-index seeds: Mix64(seed ^ index) yields
// well-separated streams for nearby indices.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Rand is the workhorse generator (xoshiro256**). It passes stringent
// statistical tests, has a 2^256-1 period and costs a handful of ALU
// operations per draw.
type Rand struct {
	s0, s1, s2, s3 uint64
}

// New returns a Rand seeded from seed's first four SplitMix64 outputs, as
// recommended by the xoshiro authors (never seed xoshiro state directly with
// correlated bits).
func New(seed uint64) *Rand {
	const gamma = 0x9e3779b97f4a7c15 // SplitMix64's increment
	x1 := seed + gamma
	x2 := x1 + gamma
	r := &Rand{s0: Mix64(seed), s1: Mix64(x1), s2: Mix64(x2), s3: Mix64(x2 + gamma)}
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 1 // all-zero state is the one forbidden state
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64-bit value.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Uint32 returns the next 32-bit value.
func (r *Rand) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniform value in [0, n). It panics if n <= 0. It is
// Uint64n(n): a draw is reduced modulo n after rejecting the few low draws
// that would favour some residues.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n called with zero n")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	// Rejection sampling: the draws at or above (2^64 − n) mod n = -n % n
	// are a whole number of runs of n, so v % n is uniform over them. That
	// threshold is below n, so a draw v ≥ n is accepted without dividing
	// for it.
	for {
		if v := r.Uint64(); v >= n || v >= -n%n {
			return v % n
		}
	}
}

// Float64 returns a uniform value in [0, 1) with 53 random bits.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	return r.Float64() < p
}

// Perm returns a pseudo-random permutation of [0, n) as a slice.
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Zipf draws from a bounded Zipf(s) distribution over [0, n) using inverse
// transform sampling on a precomputed CDF. For the skewed reuse patterns in
// synthetic workloads we want a heavy head (hot lines) and long tail.
type Zipf struct {
	cdf []float64
	// guide[k] is the first rank whose cdf is at least k/G, for G =
	// len(guide)-1, a power of two no smaller than n: a draw u in
	// [k/G, (k+1)/G) lands in [guide[k], guide[k+1]], which is all Next
	// searches.
	guide []int32
	r     *Rand
}

// NewZipf builds a sampler over [0, n) with exponent s > 0 drawing from r.
// Larger s concentrates more probability on small ranks.
func NewZipf(r *Rand, s float64, n int) *Zipf {
	if n <= 0 {
		panic("xrand: NewZipf called with non-positive n")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1.0 / pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	g := 1 << bits.Len(uint(n-1))
	guide := make([]int32, g+1)
	i := 0
	for k := range guide {
		// k/g is exact (g is a power of two); the last rank closes the
		// search whatever its cdf rounds to.
		for i < n-1 && cdf[i] < float64(k)/float64(g) {
			i++
		}
		guide[k] = int32(i)
	}
	return &Zipf{cdf: cdf, guide: guide, r: r}
}

// Next draws a rank in [0, n).
func (z *Zipf) Next() int { return z.rank(z.r.Float64()) }

// rank inverts the cdf at u in [0, 1): the first rank whose cdf is at least
// u, or the last rank.
func (z *Zipf) rank(u float64) int {
	// u·G is exact and below G, so k/G <= u < (k+1)/G and the answer of a
	// search over the whole cdf lies between the two guide entries.
	k := int(u * float64(len(z.guide)-1))
	lo, hi := int(z.guide[k]), int(z.guide[k+1])
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func pow(base, exp float64) float64 { return math.Pow(base, exp) }
