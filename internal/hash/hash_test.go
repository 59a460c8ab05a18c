package hash

import (
	"math/big"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestMulModMatchesBigInt(t *testing.T) {
	r := rng.New(1)
	p := new(big.Int).SetUint64(prime)
	for i := 0; i < 5000; i++ {
		a := r.Uint64() % prime
		b := r.Uint64() % prime
		got := mulMod(a, b)
		want := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
		want.Mod(want, p)
		if got != want.Uint64() {
			t.Fatalf("mulMod(%d, %d) = %d, want %d", a, b, got, want.Uint64())
		}
	}
}

func TestMulModEdgeCases(t *testing.T) {
	cases := [][2]uint64{
		{0, 0}, {0, prime - 1}, {prime - 1, prime - 1}, {1, prime - 1}, {2, prime / 2},
	}
	p := new(big.Int).SetUint64(prime)
	for _, c := range cases {
		want := new(big.Int).Mul(new(big.Int).SetUint64(c[0]), new(big.Int).SetUint64(c[1]))
		want.Mod(want, p)
		if got := mulMod(c[0], c[1]); got != want.Uint64() {
			t.Errorf("mulMod(%d, %d) = %d, want %d", c[0], c[1], got, want.Uint64())
		}
	}
}

func TestAddModProperty(t *testing.T) {
	f := func(a, b uint64) bool {
		a %= prime
		b %= prime
		s := addMod(a, b)
		return s < prime && s == (a+b)%prime
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewRejectsBadK(t *testing.T) {
	if _, err := New(0, rng.New(1)); err == nil {
		t.Fatal("New(0) should fail")
	}
	if _, err := New(-3, rng.New(1)); err == nil {
		t.Fatal("New(-3) should fail")
	}
}

func TestHashDeterministic(t *testing.T) {
	h1, err := New(4, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := New(4, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	for x := uint64(0); x < 1000; x++ {
		if h1.Hash(x) != h2.Hash(x) {
			t.Fatalf("same seed, different hash at %d", x)
		}
	}
}

func TestHashUniformBits(t *testing.T) {
	h, err := New(4, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	ones := 0
	const n = 20000
	for x := uint64(0); x < n; x++ {
		if h.Bool(x) {
			ones++
		}
	}
	// 4 standard deviations around n/2 for a fair coin.
	dev := 4.0 * 0.5 * 141.4 // 4·σ with σ = √n/2 ≈ 70.7... use generous bound
	if float64(ones) < n/2-dev || float64(ones) > n/2+dev {
		t.Fatalf("bit bias: %d ones out of %d", ones, n)
	}
}

func TestIntnRangeAndSpread(t *testing.T) {
	h, err := New(6, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	const buckets = 10
	counts := make([]int, buckets)
	const n = 50000
	for x := uint64(0); x < n; x++ {
		v := h.Intn(x, buckets)
		if v < 0 || v >= buckets {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		if c < n/buckets*7/10 || c > n/buckets*13/10 {
			t.Fatalf("bucket %d count %d far from uniform %d", i, c, n/buckets)
		}
	}
}

func TestPairwiseIndependenceSmoke(t *testing.T) {
	// For a 2-wise independent family, Pr[h(x) mod 2 = h(y) mod 2] ≈ 1/2
	// across function draws. Check over many draws for a fixed pair.
	r := rng.New(99)
	agree := 0
	const trials = 4000
	for i := 0; i < trials; i++ {
		h, err := New(2, r.Split())
		if err != nil {
			t.Fatal(err)
		}
		if h.Bool(12345) == h.Bool(67890) {
			agree++
		}
	}
	if agree < trials*4/10 || agree > trials*6/10 {
		t.Fatalf("pairwise agreement %d/%d far from 1/2", agree, trials)
	}
}

func TestIntnPanicsOnBadN(t *testing.T) {
	h, _ := New(2, rng.New(1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(x, 0)")
		}
	}()
	h.Intn(1, 0)
}
