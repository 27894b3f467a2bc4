// Package sim provides the deterministic simulation kernel shared by every
// experiment in the repository: a virtual millisecond clock, a bulk-
// synchronous round engine with a goroutine worker pool, and splittable
// pseudo-random number streams so that per-node randomness is reproducible
// regardless of execution order or parallelism.
package sim

import "math/bits"

// RNG is a small, fast, deterministic pseudo-random generator
// (splitmix64-seeded xoshiro256**). Each simulated node owns an independent
// stream derived from the master seed and its node ID, which keeps parallel
// round phases deterministic: the schedule of goroutines can never change
// which random numbers a node consumes.
//
// The zero value is not usable; construct with NewRNG.
type RNG struct {
	s [4]uint64
}

// splitmix64 advances the seed and returns the next splitmix64 output.
// It is the standard generator recommended for seeding xoshiro state.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRNG returns a generator seeded from seed. Two RNGs built from the same
// seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	for i := range r.s {
		r.s[i] = splitmix64(&seed)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// DeriveRNG returns an independent stream keyed by (seed, stream). It is the
// supported way to hand each node, each round phase, or each experiment
// repetition its own generator.
func DeriveRNG(seed, stream uint64) *RNG {
	mix := seed ^ (stream+1)*0xd1342543de82ef95
	return NewRNG(splitmix64(&mix))
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0, mirroring
// math/rand.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) using Lemire's multiply-shift
// rejection method, avoiding modulo bias.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("sim: Uint64n with zero n")
	}
	for {
		v := r.Uint64()
		hi, lo := bits.Mul64(v, n)
		if lo < n {
			thresh := -n % n
			if lo < thresh {
				continue
			}
		}
		return hi
	}
}

// IntRange returns a uniform int in [lo, hi] inclusive. It panics if hi < lo.
func (r *RNG) IntRange(lo, hi int) int {
	if hi < lo {
		panic("sim: IntRange with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Perm returns a pseudo-random permutation of [0, n) as a slice.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts permutes s in place (Fisher-Yates).
func (r *RNG) ShuffleInts(s []int) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// Shuffle permutes n elements in place using the provided swap function.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
