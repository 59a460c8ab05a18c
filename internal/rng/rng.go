// Package rng provides deterministic, splittable random number generation
// for the b-matching algorithms and experiments.
//
// Every randomized algorithm in this repository takes an explicit seed so
// that experiments are exactly reproducible. Splitting derives statistically
// independent child streams from a parent seed, which lets the MPC simulator
// give each machine its own stream without coordination — mirroring how a
// real deployment would seed per-machine PRNGs.
package rng

import (
	"math/rand"
)

// RNG is a deterministic random stream. It wraps math/rand with a fixed
// source so that results do not depend on global state.
type RNG struct {
	r *rand.Rand
}

// New returns a stream seeded with seed.
func New(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(mix(uint64(seed))))}
}

// Split derives a child stream from the parent. The child is seeded from the
// parent's state, so distinct calls yield distinct streams, and the parent
// advances (two Split calls return different children).
func (g *RNG) Split() *RNG {
	return New(g.Reserve())
}

// Reserve draws a child seed from the stream without materializing the
// child: New(Reserve()) equals Split(), but the seed can reconstruct the
// identical child stream any number of times. Speculative-execution
// callers use it to replay a child stream when a speculation is discarded.
func (g *RNG) Reserve() int64 {
	return int64(g.r.Uint64())
}

// Float64 returns a uniform value in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Uniform returns a uniform value in [lo,hi).
func (g *RNG) Uniform(lo, hi float64) float64 { return lo + (hi-lo)*g.r.Float64() }

// Intn returns a uniform integer in [0,n). It panics if n <= 0.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Uint64 returns a uniform uint64.
func (g *RNG) Uint64() uint64 { return g.r.Uint64() }

// Bool returns true with probability 1/2.
func (g *RNG) Bool() bool { return g.r.Int63()&1 == 1 }

// Bernoulli returns true with probability p.
func (g *RNG) Bernoulli(p float64) bool { return g.r.Float64() < p }

// Perm returns a uniform permutation of [0,n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Shuffle shuffles n elements using the provided swap function.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// mix is SplitMix64's finalizer; it decorrelates sequential seeds, so that
// New(1), New(2), ... behave as unrelated streams.
func mix(z uint64) int64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}
