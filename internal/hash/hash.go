// Package hash implements k-wise independent hash families, following the
// construction of Alon, Babai, and Itai (Theorem 4.8 of the paper): a degree
// k-1 polynomial with random coefficients over a prime field is k-wise
// independent, uses O(k log L) seed bits, and each value is computable in
// O(k) time and O(k log L) space.
//
// The streaming implementation (Section 4.6) uses these hashes to assign
// layers and orientations to unmatched edges consistently across passes
// without storing per-edge state, which would otherwise cost O(m) ≫ O(Σbᵥ)
// memory.
package hash

import (
	"fmt"
	"math/bits"

	"repro/internal/rng"
)

// prime is the Mersenne prime 2^61 - 1, which admits fast modular reduction
// and is large enough that collisions among ≤ 2^32 keys are negligible.
const prime uint64 = (1 << 61) - 1

// KWise is a k-wise independent hash function h: [2^61-1] -> [2^61-1].
// The zero value is not usable; construct with New.
type KWise struct {
	coef []uint64 // k coefficients of the degree k-1 polynomial
}

// New draws a fresh function from the k-wise independent family using the
// given random stream. k must be at least 1.
func New(k int, r *rng.RNG) (*KWise, error) {
	if k < 1 {
		return nil, fmt.Errorf("hash: k must be >= 1, got %d", k)
	}
	coef := make([]uint64, k)
	for i := range coef {
		coef[i] = r.Uint64() % prime
	}
	// A zero leading coefficient would drop the effective degree; for k >= 2
	// force it nonzero so the family stays exactly k-wise independent.
	if k >= 2 && coef[k-1] == 0 {
		coef[k-1] = 1
	}
	return &KWise{coef: coef}, nil
}

// Hash evaluates the polynomial at x by Horner's rule, mod 2^61-1.
func (h *KWise) Hash(x uint64) uint64 {
	x %= prime
	var acc uint64
	for i := len(h.coef) - 1; i >= 0; i-- {
		acc = addMod(mulMod(acc, x), h.coef[i])
	}
	return acc
}

// Intn maps the hash of x to [0,n). n must be positive. The bias from the
// modulo is at most n/2^61 and is irrelevant for the experiments here.
func (h *KWise) Intn(x uint64, n int) int {
	if n <= 0 {
		panic("hash: Intn with non-positive n")
	}
	return int(h.Hash(x) % uint64(n))
}

// Bool maps the hash of x to a bit with bias 1/2 (up to 1/2^61).
func (h *KWise) Bool(x uint64) bool { return h.Hash(x)&1 == 1 }

// addMod returns (a+b) mod 2^61-1, assuming a,b < 2^61-1.
func addMod(a, b uint64) uint64 {
	s := a + b
	if s >= prime {
		s -= prime
	}
	return s
}

// mulMod returns (a*b) mod 2^61-1 for a,b < 2^61-1. With p = 2^61-1 we have
// 2^64 ≡ 8 (mod p), so for the 128-bit product hi·2^64 + lo the residue is
// 8·hi + lo (mod p). hi < 2^58, so hi<<3 does not overflow.
func mulMod(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return addMod(fold(hi<<3), fold(lo))
}

// fold reduces a 64-bit value mod 2^61-1 by splitting at bit 61.
func fold(x uint64) uint64 {
	x = (x >> 61) + (x & prime)
	if x >= prime {
		x -= prime
	}
	return x
}
